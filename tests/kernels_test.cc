// Kernel-substrate tests: every SIMD backend the host supports must
// reproduce the baseline table within 1e-6 relative (FMA contraction and
// the AVX-512 16-lane reduction are the only permitted differences), and
// checkpoints must round-trip f32 exactly (plus v1 compatibility).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/kernels/kernels.h"
#include "nn/modules.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace causaltad {
namespace {

using nn::kernels::Get;
using nn::kernels::Isa;
using nn::kernels::Kernels;
using nn::kernels::SetIsa;
using nn::kernels::Supported;

/// Pins a backend for one scope and restores the host's best table after.
class IsaScope {
 public:
  explicit IsaScope(Isa isa) { SetIsa(isa); }
  ~IsaScope() { SetIsa(Best()); }

  static Isa Best() {
    if (Supported(Isa::kAvx512)) return Isa::kAvx512;
    if (Supported(Isa::kAvx2)) return Isa::kAvx2;
    return Isa::kBaseline;
  }
};

std::vector<float> RandomVec(int64_t n, uint64_t seed, float scale = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Gaussian()) * scale;
  return v;
}

void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 double rel, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = rel * std::max(1.0, static_cast<double>(std::abs(want[i])));
    EXPECT_NEAR(got[i], want[i], tol) << what << " [" << i << "]";
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA parity: every supported table vs baseline.
// ---------------------------------------------------------------------------

/// Runs every kernel in `kern` over fixed random inputs and returns the
/// concatenated outputs, so two tables can be compared wholesale. Sizes are
/// odd on purpose (not lane multiples) to exercise the scalar tails.
std::vector<float> KernelFingerprint(const Kernels& kern) {
  constexpr int64_t m = 5, k = 37, n = 23, batch = 3, hd = 19;
  const std::vector<float> a = RandomVec(m * k, 101);
  const std::vector<float> b = RandomVec(k * n, 102);
  const std::vector<float> bt = [&] {
    std::vector<float> t(n * k);
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < n; ++j) t[j * k + i] = b[i * n + j];
    }
    return t;
  }();
  std::vector<float> out;
  auto emit = [&out](const std::vector<float>& v) {
    out.insert(out.end(), v.begin(), v.end());
  };

  out.push_back(kern.dot(a.data(), a.data() + k, k));

  std::vector<float> packed(k * m);
  kern.pack_transpose(a.data(), m, k, packed.data());
  emit(packed);

  std::vector<float> mm(m * n, 0.5f);
  kern.matmul_packed(a.data(), b.data(), mm.data(), m, k, n,
                     /*accumulate=*/false, /*b_pretransposed=*/false);
  emit(mm);
  kern.matmul_packed(a.data(), bt.data(), mm.data(), m, k, n,
                     /*accumulate=*/true, /*b_pretransposed=*/true);
  emit(mm);

  std::vector<float> dw(k * n, 0.25f);
  const std::vector<float> g = RandomVec(m * n, 103);
  kern.add_matmul_transposed_a(a.data(), g.data(), dw.data(), m, k, n);
  emit(dw);

  const std::vector<float> x = RandomVec(257, 104, 2.0f);
  std::vector<float> t(x.size());
  kern.exp_vec(x.data(), t.data(), x.size());
  emit(t);
  kern.tanh_vec(x.data(), t.data(), x.size());
  emit(t);
  kern.sigmoid_vec(x.data(), t.data(), x.size());
  emit(t);

  std::vector<float> sm(k);
  kern.softmax_row(a.data(), k, sm.data());
  emit(sm);
  out.push_back(kern.softmax_nll_row(a.data(), k, 11));
  out.push_back(kern.kl_standard_normal_row(a.data(), a.data() + k, k));

  const std::vector<float> h = RandomVec(batch * hd, 105);
  const std::vector<float> bz = RandomVec(hd, 106);
  const std::vector<float> br = RandomVec(hd, 107);
  const std::vector<float> bh = RandomVec(hd, 108);
  std::vector<float> z = RandomVec(batch * hd, 109);
  std::vector<float> r = RandomVec(batch * hd, 110);
  std::vector<float> rh(batch * hd);
  kern.gru_gates_zr(h.data(), bz.data(), br.data(), z.data(), r.data(),
                    rh.data(), batch, hd);
  emit(z);
  emit(r);
  emit(rh);
  std::vector<float> c = RandomVec(batch * hd, 111);
  std::vector<float> blended(batch * hd);
  const std::vector<uint8_t> finished = {0, 1, 0};
  kern.gru_out_blend(h.data(), bh.data(), z.data(), c.data(), blended.data(),
                     finished.data(), batch, hd);
  emit(c);
  emit(blended);

  const std::vector<float> table = RandomVec(29 * 13, 112);
  const std::vector<int32_t> ids = {0, 7, 28, 7, 3};
  std::vector<float> rows(ids.size() * 13);
  kern.gather_rows_f32(table.data(), 13, ids.data(),
                       static_cast<int64_t>(ids.size()), rows.data());
  emit(rows);

  return out;
}

TEST(KernelIsaParityTest, SupportedTablesMatchBaseline) {
  const std::vector<float> reference = KernelFingerprint(Get(Isa::kBaseline));
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (!Supported(isa)) {
      GTEST_LOG_(INFO) << nn::kernels::IsaName(isa)
                       << " unsupported on this host; skipped";
      continue;
    }
    // 1e-5, not 1e-6: FMA contraction error is relative to the partial
    // products, so a cancellation-heavy accumulation (sum 0.05 from O(1)
    // terms over k=37) can sit a few ULP-of-the-products away from the
    // baseline sum.
    ExpectClose(KernelFingerprint(Get(isa)), reference, 1e-5,
                nn::kernels::IsaName(isa));
  }
}

TEST(KernelIsaParityTest, FingerprintIsDeterministicWithinOneTable) {
  const Kernels& kern = nn::kernels::Active();
  const std::vector<float> a = KernelFingerprint(kern);
  const std::vector<float> b = KernelFingerprint(kern);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(KernelIsaTest, SetIsaPinsActiveTable) {
  {
    IsaScope pin(Isa::kBaseline);
    EXPECT_EQ(nn::kernels::ActiveIsa(), Isa::kBaseline);
    EXPECT_STREQ(nn::kernels::Active().name, "baseline");
  }
  EXPECT_EQ(nn::kernels::ActiveIsa(), IsaScope::Best());
  EXPECT_TRUE(Supported(Isa::kBaseline));  // always available
}

// ---------------------------------------------------------------------------
// Checkpoint v2: dtype-tagged f32 records, v1 compat.
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CheckpointV2Test, UnquantizedSaveIsExactAndDefault) {
  const std::string path = TempPath("causaltad_ckpt_f32.bin");
  util::Rng rng(64);
  nn::Embedding a("emb", 13, 7, &rng);
  ASSERT_TRUE(nn::SaveCheckpoint(path, a).ok());
  util::Rng rng2(65);
  nn::Embedding b("emb", 13, 7, &rng2);
  ASSERT_TRUE(nn::LoadCheckpoint(path, &b).ok());
  for (int64_t i = 0; i < a.table().value().numel(); ++i) {
    EXPECT_EQ(b.table().value()[i], a.table().value()[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointV2Test, ReadsVersion1Checkpoints) {
  const std::string path = TempPath("causaltad_ckpt_v1.bin");
  util::Rng rng(66);
  nn::Embedding a("emb", 9, 5, &rng);
  {
    // Hand-write the v1 format: untagged (name, shape, f32 data) records.
    util::BinaryWriter writer(path, /*magic=*/0xCA057AD0, /*version=*/1);
    const auto params = a.NamedParameters();
    writer.WriteU64(params.size());
    for (const nn::NamedParam& p : params) {
      writer.WriteString(p.name);
      const auto& shape = p.var.value().shape();
      writer.WriteU64(shape.size());
      for (int64_t d : shape) writer.WriteI64(d);
      writer.WriteFloats(p.var.value().vec());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  util::Rng rng2(67);
  nn::Embedding b("emb", 9, 5, &rng2);
  ASSERT_TRUE(nn::LoadCheckpoint(path, &b).ok());
  for (int64_t i = 0; i < a.table().value().numel(); ++i) {
    EXPECT_EQ(b.table().value()[i], a.table().value()[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointV2Test, RejectsUnknownVersions) {
  const std::string path = TempPath("causaltad_ckpt_v9.bin");
  {
    util::BinaryWriter writer(path, /*magic=*/0xCA057AD0, /*version=*/9);
    writer.WriteU64(0);
    ASSERT_TRUE(writer.Close().ok());
  }
  util::Rng rng(68);
  nn::Embedding b("emb", 3, 3, &rng);
  EXPECT_FALSE(nn::LoadCheckpoint(path, &b).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace causaltad
