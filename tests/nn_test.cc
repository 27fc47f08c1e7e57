#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>

#include "nn/autograd.h"
#include "nn/checkpoint.h"
#include "nn/init.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "util/binary_io.h"

namespace causaltad {
namespace nn {
namespace {

// ---------------------------------------------------------------------------
// Numeric gradient checking harness.
// ---------------------------------------------------------------------------

// Builds the graph via `forward`, runs Backward, then compares every
// parameter gradient against central finite differences of the forward value.
void CheckGrads(const std::function<Var()>& forward, std::vector<Var> params,
                float eps = 1e-3f, float atol = 3e-3f, float rtol = 6e-2f) {
  Var loss = forward();
  ASSERT_EQ(loss.value().numel(), 1);
  for (Var& p : params) p.ZeroGrad();
  Backward(loss);

  for (size_t pi = 0; pi < params.size(); ++pi) {
    Var& p = params[pi];
    for (int64_t i = 0; i < p.value().numel(); ++i) {
      const float orig = p.value()[i];
      p.mutable_value()[i] = orig + eps;
      const float fp = forward().value().Item();
      p.mutable_value()[i] = orig - eps;
      const float fm = forward().value().Item();
      p.mutable_value()[i] = orig;
      const float numeric = (fp - fm) / (2 * eps);
      const float analytic = p.grad()[i];
      const float tol =
          atol + rtol * std::max(std::abs(numeric), std::abs(analytic));
      EXPECT_NEAR(analytic, numeric, tol)
          << "param " << pi << " element " << i;
    }
  }
}

Var Param(std::vector<int64_t> shape, uint64_t seed) {
  util::Rng rng(seed);
  return Var(GaussianInit(std::move(shape), 0.5, &rng),
             /*requires_grad=*/true);
}

// ---------------------------------------------------------------------------
// Tensor basics.
// ---------------------------------------------------------------------------

TEST(TensorTest, ShapesAndAccess) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  t.At(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
}

TEST(TensorTest, FromVectorValidatesSize) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).Item(), 2.5f);
}

// ---------------------------------------------------------------------------
// Per-op gradient checks.
// ---------------------------------------------------------------------------

TEST(GradCheck, AddSameShape) {
  Var a = Param({2, 3}, 1), b = Param({2, 3}, 2);
  CheckGrads([&] { return Sum(Add(a, b)); }, {a, b});
}

TEST(GradCheck, AddRowBroadcast) {
  Var a = Param({3, 4}, 3), b = Param({1, 4}, 4);
  // Weight rows unevenly so broadcast reduction is actually exercised.
  Var w = Constant(Tensor::FromVector({3, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                               10, 11, 12}));
  CheckGrads([&] { return Sum(Mul(Add(a, b), w)); }, {a, b});
}

TEST(GradCheck, SubScalarBroadcast) {
  Var a = Param({2, 2}, 5), b = Param({1, 1}, 6);
  CheckGrads([&] { return Sum(Mul(Sub(a, b), Sub(a, b))); }, {a, b});
}

TEST(GradCheck, MulElementwise) {
  Var a = Param({2, 3}, 7), b = Param({2, 3}, 8);
  CheckGrads([&] { return Sum(Mul(a, b)); }, {a, b});
}

TEST(GradCheck, MatMul) {
  Var a = Param({2, 3}, 9), b = Param({3, 4}, 10);
  Var w = Constant(GaussianInit({2, 4}, 1.0, [] {
                     static util::Rng rng(99);
                     return &rng;
                   }()));
  CheckGrads([&] { return Sum(Mul(MatMul(a, b), w)); }, {a, b});
}

TEST(GradCheck, Affine) {
  Var x = Param({2, 3}, 11), w = Param({3, 2}, 12), b = Param({1, 2}, 13);
  CheckGrads([&] { return Sum(Tanh(Affine(x, w, b))); }, {x, w, b});
}

TEST(GradCheck, UnaryOps) {
  Var a = Param({2, 3}, 14);
  CheckGrads([&] { return Sum(Tanh(a)); }, {a});
  CheckGrads([&] { return Sum(Sigmoid(a)); }, {a});
  CheckGrads([&] { return Sum(Exp(ScalarMul(a, 0.3f))); }, {a});
  CheckGrads([&] { return Mean(Mul(a, a)); }, {a});
  CheckGrads([&] { return Sum(Neg(a)); }, {a});
  CheckGrads([&] { return Sum(ScalarAdd(Mul(a, a), 2.0f)); }, {a});
}

TEST(GradCheck, ReluAwayFromKink) {
  // Values well away from 0 so finite differences are clean.
  Var a = Var(Tensor::FromVector({1, 4}, {-2.0f, -0.7f, 0.8f, 1.5f}), true);
  CheckGrads([&] { return Sum(Relu(a)); }, {a});
}

TEST(GradCheck, ConcatRowsAndCols) {
  Var a = Param({1, 3}, 15), b = Param({2, 3}, 16), c = Param({1, 3}, 17);
  Var w = Constant(Tensor::FromVector(
      {4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  CheckGrads([&] { return Sum(Mul(ConcatRows({a, b, c}), w)); }, {a, b, c});

  Var d = Param({2, 2}, 18), e = Param({2, 1}, 19);
  Var w2 = Constant(Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
  CheckGrads([&] { return Sum(Mul(ConcatCols({d, e}), w2)); }, {d, e});
}

TEST(GradCheck, GatherRowsScatterAddsRepeats) {
  Var table = Param({5, 3}, 20);
  const std::vector<int32_t> ids = {1, 3, 1, 0};  // repeated row 1
  Var w = Constant(Tensor::FromVector(
      {4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  CheckGrads([&] { return Sum(Mul(GatherRows(table, ids), w)); }, {table});
}

TEST(GradCheck, SoftmaxComposedToScalar) {
  Var a = Param({2, 4}, 21);
  Var w = Constant(
      Tensor::FromVector({2, 4}, {0.3f, -1, 2, 0.5f, 1, -0.2f, 0.1f, 3}));
  CheckGrads([&] { return Sum(Mul(Softmax(a), w)); }, {a});
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Var logits = Param({3, 5}, 22);
  const std::vector<int32_t> targets = {2, 0, 4};
  CheckGrads([&] { return SoftmaxCrossEntropy(logits, targets); }, {logits});
}

TEST(SoftmaxCrossEntropyTest, MatchesManualComputation) {
  Var logits = Var(Tensor::FromVector({1, 3}, {1.0f, 2.0f, 3.0f}), true);
  const std::vector<int32_t> targets = {1};
  Var loss = SoftmaxCrossEntropy(logits, targets);
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(loss.value().Item(), -std::log(std::exp(2.0) / denom), 1e-5);
}

TEST(GradCheck, GatherColsDot) {
  Var h = Param({1, 4}, 23), w = Param({4, 6}, 24), b = Param({1, 6}, 25);
  const std::vector<int32_t> ids = {5, 0, 2};
  const std::vector<int32_t> targets = {1};
  CheckGrads(
      [&] {
        return SoftmaxCrossEntropy(GatherColsDot(h, w, b, ids), targets);
      },
      {h, w, b});
}

TEST(GatherColsDotTest, MatchesFullMatmulOnSubset) {
  Var h = Param({1, 4}, 26), w = Param({4, 6}, 27), b = Param({1, 6}, 28);
  const std::vector<int32_t> ids = {3, 1};
  Var partial = GatherColsDot(h, w, b, ids);
  Var full = Affine(h, w, b);
  EXPECT_NEAR(partial.value()[0], full.value()[3], 1e-5);
  EXPECT_NEAR(partial.value()[1], full.value()[1], 1e-5);
}

TEST(GradCheck, KlStandardNormal) {
  Var mu = Param({1, 4}, 29), logvar = Param({1, 4}, 30);
  CheckGrads([&] { return KlStandardNormal(mu, logvar); }, {mu, logvar});
}

TEST(KlTest, ZeroAtStandardNormal) {
  Var mu = Var(Tensor::Zeros({1, 4}), true);
  Var logvar = Var(Tensor::Zeros({1, 4}), true);
  EXPECT_NEAR(KlStandardNormal(mu, logvar).value().Item(), 0.0f, 1e-7);
}

TEST(GradCheck, ReparameterizeWithFixedSeed) {
  Var mu = Param({1, 3}, 31), logvar = Param({1, 3}, 32);
  // Same seed every forward call => same eps => valid finite differences.
  CheckGrads(
      [&] {
        util::Rng rng(777);
        Var z = Reparameterize(mu, logvar, &rng);
        return Sum(Mul(z, z));
      },
      {mu, logvar});
}

TEST(GradCheck, LogSumExpRow) {
  Var a = Param({1, 6}, 33);
  CheckGrads([&] { return LogSumExpRow(a); }, {a});
}

TEST(LogSumExpTest, StableForLargeValues) {
  Var a = Var(Tensor::FromVector({1, 2}, {1000.0f, 1000.0f}), false);
  EXPECT_NEAR(LogSumExpRow(a).value().Item(), 1000.0f + std::log(2.0f), 1e-3);
}

TEST(GradCheck, GruCellStep) {
  util::Rng rng(41);
  GruCell cell("gru", 3, 4, &rng);
  Var x = Param({1, 3}, 42);
  Var h = Param({1, 4}, 43);
  std::vector<Var> params = cell.Parameters();
  params.push_back(x);
  params.push_back(h);
  CheckGrads([&] { return Sum(Mul(cell.Step(x, h), cell.Step(x, h))); },
             params);
}

TEST(GradCheck, TwoStepGruBackpropagatesThroughTime) {
  util::Rng rng(44);
  GruCell cell("gru", 2, 3, &rng);
  Var x1 = Param({1, 2}, 45), x2 = Param({1, 2}, 46);
  std::vector<Var> params = cell.Parameters();
  params.push_back(x1);
  params.push_back(x2);
  CheckGrads(
      [&] {
        Var h0 = Constant(Tensor::Zeros({1, 3}));
        Var h1 = cell.Step(x1, h0);
        Var h2 = cell.Step(x2, h1);
        return Sum(Mul(h2, h2));
      },
      params);
}

// ---------------------------------------------------------------------------
// Autograd mechanics.
// ---------------------------------------------------------------------------

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Var a = Var(Tensor::Scalar(2.0f), true);
  Var loss1 = Sum(Mul(a, a));
  Backward(loss1);
  EXPECT_NEAR(a.grad()[0], 4.0f, 1e-6);
  Var loss2 = Sum(Mul(a, a));
  Backward(loss2);
  EXPECT_NEAR(a.grad()[0], 8.0f, 1e-6);
  a.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  Var a = Var(Tensor::Scalar(3.0f), true);
  Var b = ScalarMul(a, 2.0f);
  Var loss = Sum(Add(Mul(b, b), Mul(a, a)));  // 4a² + a² => d/da = 10a
  Backward(loss);
  EXPECT_NEAR(a.grad()[0], 30.0f, 1e-4);
}

TEST(AutogradTest, NoGradThroughConstants) {
  Var a = Constant(Tensor::Scalar(1.0f));
  Var b = Var(Tensor::Scalar(2.0f), true);
  Var loss = Sum(Mul(a, b));
  Backward(loss);
  EXPECT_NEAR(b.grad()[0], 1.0f, 1e-6);
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Var a = Var(Tensor::Scalar(1.0f), true);
  Var x = a;
  for (int i = 0; i < 5000; ++i) x = ScalarMul(x, 1.0001f);
  Backward(Sum(x));
  EXPECT_GT(a.grad()[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Inference fast path: no-grad guard, packed MatMul, fused GRU step.
// ---------------------------------------------------------------------------

TEST(TensorTest, ReshapeIsInPlaceRankConversion) {
  Tensor t = Tensor::FromVector({6}, {1, 2, 3, 4, 5, 6});
  const float* data = t.data();
  t.Reshape({2, 3});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.At(1, 0), 4.0f);
  EXPECT_EQ(t.data(), data);  // same storage, no copy
  t.Reshape({6});
  EXPECT_EQ(t.ndim(), 1);
  EXPECT_EQ(t[5], 6.0f);
}

TEST(InferenceGuardTest, ForwardsAllocateZeroTapeNodes) {
  util::Rng rng(60);
  GruCell cell("gru", 5, 7, &rng);
  Var x = Param({3, 5}, 61);
  Var h = Param({3, 7}, 62);

  // A taped forward creates tape nodes...
  const int64_t before_taped = TapeNodesCreated();
  Var taped = cell.Step(x, h);
  EXPECT_GT(TapeNodesCreated(), before_taped);
  EXPECT_TRUE(taped.requires_grad());

  // ...the same forward under the guard creates none, for any op.
  const int64_t before = TapeNodesCreated();
  {
    InferenceGuard guard;
    EXPECT_TRUE(InferenceGuard::active());
    Var y = cell.Step(x, h);
    y = Tanh(Affine(y, Param({7, 4}, 63), Param({1, 4}, 64)));
    y = Softmax(y);
    EXPECT_EQ(y.value().rows(), 3);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_FALSE(InferenceGuard::active());
  EXPECT_EQ(TapeNodesCreated(), before);
}

TEST(InferenceGuardTest, GuardedValuesMatchTapedValues) {
  util::Rng rng(65);
  Mlp mlp("m", {6, 10, 3}, &rng);
  Var x = Param({4, 6}, 66);
  const Tensor taped = Softmax(mlp.Forward(x)).value();
  Tensor guarded;
  {
    InferenceGuard guard;
    guarded = Softmax(mlp.Forward(x)).value();
  }
  ASSERT_TRUE(guarded.SameShape(taped));
  for (int64_t i = 0; i < taped.numel(); ++i) {
    EXPECT_FLOAT_EQ(guarded[i], taped[i]);
  }
}

TEST(MatMulPackedTest, MatchesNaiveTripleLoopOnOddShapes) {
  // Shapes deliberately not multiples of the 4x unroll.
  const int64_t m = 3, k = 5, n = 7;
  Var a = Param({m, k}, 67), b = Param({k, n}, 68);
  const Tensor out = MatMul(a, b).value();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.value().At(i, p) * b.value().At(p, j);
      }
      EXPECT_NEAR(out.At(i, j), acc, 1e-5f);
    }
  }
}

TEST(GruFusedTest, StepFusedMatchesStepPerRowAndBatched) {
  util::Rng rng(70);
  GruCell cell("gru", 6, 9, &rng);
  const int64_t batch = 5;
  Var x = Param({batch, 6}, 71);
  Var h = Param({batch, 9}, 72);

  const Tensor reference = cell.Step(x, h).value();
  Tensor fused;
  {
    InferenceGuard guard;
    const int64_t before = TapeNodesCreated();
    fused = cell.StepFused(x, h).value();
    EXPECT_EQ(TapeNodesCreated(), before);
  }
  ASSERT_TRUE(fused.SameShape(reference));
  for (int64_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(fused[i], reference[i], 1e-5f) << "element " << i;
  }
}

TEST(GruFusedTest, FallsBackToTapedStepWhenGradsAreRecorded) {
  util::Rng rng(73);
  GruCell cell("gru", 3, 4, &rng);
  Var x = Param({1, 3}, 74);
  Var h = Param({1, 4}, 75);
  // Outside a guard with requires_grad inputs, StepFused must behave as the
  // op-composed Step, including backprop.
  Var y = cell.StepFused(x, h);
  EXPECT_TRUE(y.requires_grad());
  std::vector<Var> params = cell.Parameters();
  params.push_back(x);
  params.push_back(h);
  CheckGrads([&] { return Sum(Mul(cell.StepFused(x, h), cell.StepFused(x, h))); },
             params);
}

// ---------------------------------------------------------------------------
// Modules, optimizer, checkpointing.
// ---------------------------------------------------------------------------

TEST(ModuleTest, NamedParametersAreHierarchical) {
  util::Rng rng(50);
  Mlp mlp("enc", {4, 8, 2}, &rng);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);  // 2 layers x (w, b)
  EXPECT_EQ(named[0].name, "enc.fc0.w");
  EXPECT_EQ(named[3].name, "enc.fc1.b");
  EXPECT_EQ(mlp.NumParams(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(AdamTest, ConvergesOnLeastSquares) {
  util::Rng rng(51);
  // Fit y = 2x + 1 with a 1-d linear model.
  Linear model("fit", 1, 1, &rng);
  Adam opt(model.Parameters(), {.lr = 0.05f});
  for (int step = 0; step < 400; ++step) {
    opt.ZeroGrad();
    Var loss;
    for (float xv : {-1.0f, 0.0f, 1.0f, 2.0f}) {
      Var x = Constant(Tensor::FromVector({1, 1}, {xv}));
      Var target = Constant(Tensor::FromVector({1, 1}, {2 * xv + 1}));
      Var err = Sub(model.Forward(x), target);
      Var sq = Mul(err, err);
      loss = loss.defined() ? Add(loss, sq) : sq;
    }
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(model.w().value()[0], 2.0f, 0.05f);
  EXPECT_NEAR(model.b().value()[0], 1.0f, 0.05f);
}

TEST(ClipGradTest, ScalesDownLargeGradients) {
  Var a = Var(Tensor::FromVector({1, 2}, {3.0f, 4.0f}), true);
  a.grad()[0] = 30.0f;
  a.grad()[1] = 40.0f;  // norm 50
  std::vector<Var> params = {a};
  ClipGradNorm(params, 5.0);
  EXPECT_NEAR(GlobalGradNorm(params), 5.0, 1e-4);
  EXPECT_NEAR(a.grad()[0] / a.grad()[1], 0.75f, 1e-5);
}

TEST(ClipGradTest, LeavesSmallGradientsAlone) {
  Var a = Var(Tensor::FromVector({1, 2}, {1.0f, 1.0f}), true);
  a.grad()[0] = 0.3f;
  a.grad()[1] = 0.4f;
  std::vector<Var> params = {a};
  ClipGradNorm(params, 5.0);
  EXPECT_FLOAT_EQ(a.grad()[0], 0.3f);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "causaltad_ckpt_test.bin")
          .string();
  util::Rng rng(52);
  Mlp a("model", {3, 5, 2}, &rng);
  ASSERT_TRUE(SaveCheckpoint(path, a).ok());

  util::Rng rng2(999);
  Mlp b("model", {3, 5, 2}, &rng2);
  ASSERT_TRUE(LoadCheckpoint(path, &b).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].var.value().numel(), pb[i].var.value().numel());
    for (int64_t j = 0; j < pa[i].var.value().numel(); ++j) {
      EXPECT_FLOAT_EQ(pa[i].var.value()[j], pb[i].var.value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "causaltad_ckpt_test2.bin")
          .string();
  util::Rng rng(53);
  Mlp a("model", {3, 5, 2}, &rng);
  ASSERT_TRUE(SaveCheckpoint(path, a).ok());
  Mlp b("model", {3, 6, 2}, &rng);
  EXPECT_FALSE(LoadCheckpoint(path, &b).ok());
  Mlp c("other", {3, 5, 2}, &rng);
  EXPECT_FALSE(LoadCheckpoint(path, &c).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  util::Rng rng(54);
  Mlp m("model", {2, 2}, &rng);
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/ckpt.bin", &m).ok());
}

// ---------------------------------------------------------------------------
// Checkpoint loader hardening: every size in the file is untrusted.
// ---------------------------------------------------------------------------

constexpr uint32_t kCkptMagic = 0xCA057AD0;

/// Per-process path so the ISA rerun of this binary cannot race on it.
std::string FuzzPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid()) + ".bin"))
      .string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every parameter holds exactly as many floats as its shape says.
bool BuffersMatchShapes(const Module& module) {
  for (const NamedParam& p : module.NamedParameters()) {
    const Tensor& t = p.var.value();
    int64_t elements = 1;
    for (const int64_t d : t.shape()) elements *= d;
    if (static_cast<int64_t>(t.vec().size()) != elements) return false;
  }
  return true;
}

/// Loads `bytes` as a checkpoint into a fresh {3,5,2} Mlp and returns the
/// load status. Whether or not the load succeeded, every tensor's buffer
/// must match its shape.
util::Status ExpectSafeLoad(const std::string& path, const std::string& bytes,
                            const std::string& what) {
  WriteFileBytes(path, bytes);
  util::Rng rng(7);
  Mlp target("model", {3, 5, 2}, &rng);
  const util::Status status = LoadCheckpoint(path, &target);
  EXPECT_TRUE(BuffersMatchShapes(target))
      << what << " (" << (status.ok() ? "ok" : status.ToString()) << ")";
  return status;
}

/// Offsets of every u64/i64 size field in a well-formed v2 checkpoint: the
/// record count, then per record the name length, ndim, each dim and the
/// float count.
std::vector<size_t> SizeFieldOffsets(const std::string& file) {
  const auto u64_at = [&file](size_t at) {
    uint64_t v;
    std::memcpy(&v, file.data() + at, sizeof(v));
    return v;
  };
  std::vector<size_t> offsets = {8};
  size_t at = 16;
  for (uint64_t r = 0; r < u64_at(8); ++r) {
    offsets.push_back(at);  // name length
    at += 8 + u64_at(at);
    offsets.push_back(at);  // ndim
    const uint64_t ndim = u64_at(at);
    at += 8;
    for (uint64_t d = 0; d < ndim; ++d, at += 8) offsets.push_back(at);
    at += 4;                // dtype
    offsets.push_back(at);  // float count
    at += 8 + 4 * u64_at(at);
  }
  return offsets;
}

/// A v2 header plus one record for `name` with the given shape and dtype;
/// `body` writes the payload.
template <typename Body>
void WriteOneRecord(const std::string& path, const std::string& name,
                    const std::vector<int64_t>& shape, uint32_t dtype,
                    Body body) {
  util::BinaryWriter writer(path, kCkptMagic, /*version=*/2);
  writer.WriteU64(1);
  writer.WriteString(name);
  writer.WriteU64(shape.size());
  for (int64_t d : shape) writer.WriteI64(d);
  writer.WriteU32(dtype);
  body(&writer);
  ASSERT_TRUE(writer.Close().ok());
}

TEST(CheckpointFuzzTest, TruncationsFlipsAndLengthOverwritesNeverCorrupt) {
  const std::string path = FuzzPath("causaltad_ckpt_fuzz");
  util::Rng init(71);
  Mlp source("model", {3, 5, 2}, &init);
  ASSERT_TRUE(SaveCheckpoint(path, source).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 64u);

  // Every proper prefix is missing records, so every one must fail.
  for (size_t len = 0; len < good.size(); ++len) {
    const std::string what = "prefix " + std::to_string(len);
    EXPECT_FALSE(ExpectSafeLoad(path, good.substr(0, len), what).ok())
        << what;
  }

  util::Rng rng(0xF022);
  for (int i = 0; i < 400; ++i) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.UniformInt(static_cast<int64_t>(bytes.size()))] =
          static_cast<char>(rng.UniformInt(256));
    }
    ExpectSafeLoad(path, bytes, "flip case " + std::to_string(i));
  }

  // Overwrite every u64/i64 size field of the file (the record count, and
  // per record the name length, ndim, each dim and the float count) with
  // off-by-one and hostile values. Every absolute value is either tiny or
  // far past any length a loader could accept, so no loader can be tricked
  // into a big allocation by this loop.
  const std::vector<size_t> fields = SizeFieldOffsets(good);
  ASSERT_EQ(fields.size(), 1u + 4 * 5u);  // count + 4 records of 2-D params
  for (const size_t at : fields) {
    uint64_t was;
    std::memcpy(&was, good.data() + at, sizeof(was));
    for (const uint64_t v : {was - 1, was + 1, uint64_t{0}, uint64_t{1},
                             uint64_t{255}, uint64_t{good.size()},
                             uint64_t{1} << 40, uint64_t{1} << 62,
                             std::numeric_limits<uint64_t>::max()}) {
      std::string bytes = good;
      std::memcpy(bytes.data() + at, &v, sizeof(v));
      ExpectSafeLoad(path, bytes,
                     "offset " + std::to_string(at) + " := " +
                         std::to_string(v));
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, RejectsRecordShorterThanItsShape) {
  const std::string path = FuzzPath("causaltad_ckpt_short");
  WriteOneRecord(path, "emb.table", {100, 8}, /*dtype=*/0,
                 [](util::BinaryWriter* w) {
                   w->WriteFloats(std::vector<float>(10, 0.5f));
                 });
  util::Rng rng(72);
  Embedding emb("emb", 100, 8, &rng);
  EXPECT_FALSE(LoadCheckpoint(path, &emb).ok());
  EXPECT_TRUE(BuffersMatchShapes(emb));
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, RejectsHugeRank) {
  const std::string path = FuzzPath("causaltad_ckpt_rank");
  {
    util::BinaryWriter writer(path, kCkptMagic, /*version=*/2);
    writer.WriteU64(1);
    writer.WriteString("emb.table");
    writer.WriteU64(1ULL << 62);  // ndim
    writer.WriteI64(4);
    ASSERT_TRUE(writer.Close().ok());
  }
  util::Rng rng(73);
  Embedding emb("emb", 4, 4, &rng);
  EXPECT_FALSE(LoadCheckpoint(path, &emb).ok());
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, RejectsLengthsPastTheEndOfTheFile) {
  const std::string path = FuzzPath("causaltad_ckpt_len");
  util::Rng rng(74);
  Embedding emb("emb", 4, 4, &rng);
  // A float count far past the bytes left.
  WriteOneRecord(path, "emb.table", {4, 4}, /*dtype=*/0,
                 [](util::BinaryWriter* w) { w->WriteU64(1ULL << 20); });
  EXPECT_FALSE(LoadCheckpoint(path, &emb).ok());
  // A name length past the bytes left.
  {
    util::BinaryWriter writer(path, kCkptMagic, /*version=*/2);
    writer.WriteU64(1);
    writer.WriteU64(1ULL << 20);
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_FALSE(LoadCheckpoint(path, &emb).ok());
  // The reader itself: a length one element past the end fails and reads
  // nothing.
  {
    util::BinaryWriter writer(path, kCkptMagic, /*version=*/2);
    writer.WriteU64(3);
    writer.WriteF32(1.0f);
    writer.WriteF32(2.0f);
    ASSERT_TRUE(writer.Close().ok());
  }
  util::BinaryReader reader(path, kCkptMagic, 2);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.ReadFloats().empty());
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(BuffersMatchShapes(emb));
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, RejectsInt8DtypeRecords) {
  const std::string path = FuzzPath("causaltad_ckpt_i8");
  // The retired dtype-1 layout: int8 rows, then per-row f32 scales.
  WriteOneRecord(path, "emb.table", {3, 2}, /*dtype=*/1,
                 [](util::BinaryWriter* w) {
                   w->WriteString(std::string(6, '\x01'));
                   w->WriteFloats(std::vector<float>(3, 0.25f));
                 });
  util::Rng rng(75);
  Embedding emb("emb", 3, 2, &rng);
  const std::vector<float> before = emb.table().value().vec();
  const util::Status status = LoadCheckpoint(path, &emb);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(emb.table().value().vec(), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nn
}  // namespace causaltad
