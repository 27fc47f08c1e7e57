// Kernel-substrate tests: every SIMD backend the host supports must
// reproduce the baseline table within 1e-6 relative (FMA contraction and
// the AVX-512 16-lane reduction are the only permitted differences), the
// GEMM kernels must keep each table's per-element rounding bit for bit
// over an edge-shape sweep, and checkpoints must round-trip f32 exactly
// (plus v1 compatibility).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

// ---------------------------------------------------------------------------
// GEMM edge-shape sweep: matmul_packed (every accumulate x b_pretransposed
// combination) and add_matmul_transposed_a on every supported table, over
// shapes that hit each path — the m < 4 stream, the 2-row x 4-column tile,
// the odd last row, the n % 4 columns and every lane/k tail.
// ---------------------------------------------------------------------------

const std::vector<Isa>& SupportedIsas() {
  static const std::vector<Isa> isas = [] {
    std::vector<Isa> out;
    for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (Supported(isa)) out.push_back(isa);
    }
    return out;
  }();
  return isas;
}

constexpr int64_t kSweepM[] = {1, 2, 3, 4, 5, 15, 16, 17, 33};
constexpr int64_t kSweepK[] = {1, 7, 8, 16, 33, 48, 610};
constexpr int64_t kSweepN[] = {1, 3, 4, 5, 7, 9, 17, 48, 144};

/// Gaussian entries scaled by `scale`, with every seventh one an exact zero
/// (the m < 4 stream skips zero a-entries) and every 77th a -0, so signed
/// zeros pass through each path.
std::vector<float> SweepInput(int64_t n, uint64_t seed, float scale) {
  std::vector<float> v = RandomVec(n, seed, scale);
  for (int64_t i = 0; i < n; i += 7) v[i] = (i % 11 == 0) ? -0.0f : 0.0f;
  return v;
}

/// Scalar restatement of one table's per-element GEMM association. `lanes`
/// is the table's accumulator lane count; `fused` says whether its lane and
/// dot-tail multiply-adds round once (std::fma) or twice. This test TU is
/// built with the portable flags, which emit no FMA instructions, so every
/// `a * b + c` written here rounds the product before the add.
struct GemmAssociation {
  int lanes;
  bool fused;

  float MulAdd(float a, float b, float c) const {
    return fused ? std::fma(a, b, c) : a * b + c;
  }

  /// Lane partials of a length-len dot of x and y (strides xs, ys): lane l
  /// accumulates the products at l, l + lanes, ... over the full lane blocks.
  std::vector<float> Lanes(const float* x, int64_t xs, const float* y,
                           int64_t ys, int64_t len, int64_t* tail) const {
    std::vector<float> acc(lanes, 0.0f);
    int64_t i = 0;
    for (; i + lanes <= len; i += lanes) {
      for (int l = 0; l < lanes; ++l) {
        acc[l] = MulAdd(x[(i + l) * xs], y[(i + l) * ys], acc[l]);
      }
    }
    *tail = i;
    return acc;
  }

  /// DotUnrolled: lanes reduced pairwise (adjacent pairs first), then the
  /// k-tail with the table's multiply-add.
  float TreeDot(const float* x, int64_t xs, const float* y, int64_t ys,
                int64_t len) const {
    int64_t i = 0;
    std::vector<float> acc = Lanes(x, xs, y, ys, len, &i);
    for (int s = 1; s < lanes; s *= 2) {
      for (int l = 0; l + s < lanes; l += 2 * s) acc[l] += acc[l + s];
    }
    float sum = acc[0];
    for (; i < len; ++i) sum = MulAdd(x[i * xs], y[i * ys], sum);
    return sum;
  }

  /// Register-tile element: lanes summed in order from +0, then a k-tail
  /// whose products are rounded before the add on every table.
  float TileDot(const float* x, int64_t xs, const float* y, int64_t ys,
                int64_t len) const {
    int64_t i = 0;
    const std::vector<float> acc = Lanes(x, xs, y, ys, len, &i);
    float sum = 0.0f;
    for (int l = 0; l < lanes; ++l) sum += acc[l];
    for (; i < len; ++i) sum += x[i * xs] * y[i * ys];
    return sum;
  }

  /// matmul_packed on a row-major b[k,n]; `stream` selects the m < 4
  /// non-pretransposed path.
  void MatMul(const float* a, const float* b, float* out, int64_t m,
              int64_t k, int64_t n, bool accumulate, bool stream) const {
    const auto emit = [accumulate](float* slot, float dot) {
      *slot = accumulate ? *slot + dot : dot;
    };
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      for (int64_t j = 0; j < n; ++j) {
        float* slot = out + i * n + j;
        if (stream) {
          float acc = accumulate ? *slot : 0.0f;
          for (int64_t p = 0; p < k; ++p) {
            if (arow[p] != 0.0f) acc = MulAdd(arow[p], b[p * n + j], acc);
          }
          *slot = acc;
        } else if (i < (m & ~int64_t{1}) && j < (n & ~int64_t{3})) {
          emit(slot, TileDot(arow, 1, b + j, n, k));
        } else {
          emit(slot, TreeDot(arow, 1, b + j, n, k));
        }
      }
    }
  }

  /// add_matmul_transposed_a: out[p,j] += tree dot of a[:,p] and g[:,j].
  void AddMatMulTransposedA(const float* a, const float* g, float* out,
                            int64_t m, int64_t k, int64_t n) const {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < n; ++j) {
        out[p * n + j] += TreeDot(a + p, k, g + j, n, m);
      }
    }
  }
};

GemmAssociation AssociationOf(Isa isa) {
  return {isa == Isa::kAvx512 ? 16 : 8, isa != Isa::kBaseline};
}

std::vector<float> Transposed(const std::vector<float>& src, int64_t r,
                              int64_t c) {
  std::vector<float> dst(src.size());
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < c; ++j) dst[j * r + i] = src[i * c + j];
  }
  return dst;
}

/// Bit patterns, so -0 vs +0 and any NaN payload count as differences.
void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  int reported = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) == std::bit_cast<uint32_t>(want[i])) {
      continue;
    }
    ADD_FAILURE() << what << " [" << i << "]: " << got[i] << " vs "
                  << want[i];
    if (++reported == 3) return;
  }
}

/// One kernel call of the sweep: shapes, flags and the operands as the
/// reference functions read them (b row-major [k,n], the initial out).
struct GemmCase {
  int64_t m, k, n;
  bool accumulate;
  bool stream;  // matmul_packed's m < 4, non-pretransposed path
  const std::vector<float>* a;
  const std::vector<float>* b;
  const std::vector<float>* out0;
};

/// Runs matmul_packed (both flags) and add_matmul_transposed_a on every
/// supported table over the sweep and hands each output to `check_mm` /
/// `check_tn`. Stops at the first shape with a failure, so one broken path
/// does not flood the log.
template <typename CheckMatMul, typename CheckTransposedA>
void SweepGemm(CheckMatMul check_mm, CheckTransposedA check_tn) {
  for (int64_t m : kSweepM) {
    for (int64_t k : kSweepK) {
      for (int64_t n : kSweepN) {
        const std::string shape = std::to_string(m) + "x" +
                                  std::to_string(k) + "x" + std::to_string(n);
        // a scaled by 1/sqrt(reduction length) keeps every partial sum O(1).
        const std::vector<float> a =
            SweepInput(m * k, 201 + m, 1.0f / std::sqrt(static_cast<float>(k)));
        const std::vector<float> b = SweepInput(k * n, 301 + n, 1.0f);
        const std::vector<float> bt = Transposed(b, k, n);
        const std::vector<float> out0 = RandomVec(m * n, 401 + k);
        const std::vector<float> at = SweepInput(
            m * k, 501 + k, 1.0f / std::sqrt(static_cast<float>(m)));
        const std::vector<float> g = SweepInput(m * n, 601 + n, 1.0f);
        const std::vector<float> dw0 = RandomVec(k * n, 701 + m);
        for (Isa isa : SupportedIsas()) {
          const Kernels& kern = Get(isa);
          const std::string table = nn::kernels::IsaName(isa);
          for (bool accumulate : {false, true}) {
            for (bool pretransposed : {false, true}) {
              std::vector<float> got = out0;
              kern.matmul_packed(a.data(),
                                 pretransposed ? bt.data() : b.data(),
                                 got.data(), m, k, n, accumulate,
                                 pretransposed);
              const GemmCase c{m, k, n, accumulate, m < 4 && !pretransposed,
                               &a, &b, &out0};
              check_mm(isa, c, got,
                       table + " matmul_packed " + shape +
                           (accumulate ? " accumulate" : "") +
                           (pretransposed ? " pretransposed" : ""));
            }
          }
          std::vector<float> dw = dw0;
          kern.add_matmul_transposed_a(at.data(), g.data(), dw.data(), m, k,
                                       n);
          const GemmCase c{m, k, n, true, false, &at, &g, &dw0};
          check_tn(isa, c, dw, table + " add_matmul_transposed_a " + shape);
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(GemmSweepTest, MatchesDoubleReference) {
  SweepGemm(
      [](Isa, const GemmCase& c, const std::vector<float>& got,
         const std::string& what) {
        std::vector<float> want(c.m * c.n);
        for (int64_t i = 0; i < c.m; ++i) {
          for (int64_t j = 0; j < c.n; ++j) {
            double acc = c.accumulate ? (*c.out0)[i * c.n + j] : 0.0;
            for (int64_t p = 0; p < c.k; ++p) {
              acc += static_cast<double>((*c.a)[i * c.k + p]) *
                     (*c.b)[p * c.n + j];
            }
            want[i * c.n + j] = static_cast<float>(acc);
          }
        }
        ExpectClose(got, want, 1e-5, what);
      },
      [](Isa, const GemmCase& c, const std::vector<float>& got,
         const std::string& what) {
        std::vector<float> want(c.k * c.n);
        for (int64_t p = 0; p < c.k; ++p) {
          for (int64_t j = 0; j < c.n; ++j) {
            double acc = (*c.out0)[p * c.n + j];
            for (int64_t i = 0; i < c.m; ++i) {
              acc += static_cast<double>((*c.a)[i * c.k + p]) *
                     (*c.b)[i * c.n + j];
            }
            want[p * c.n + j] = static_cast<float>(acc);
          }
        }
        ExpectClose(got, want, 1e-5, what);
      });
}

// Pins each table's rounding: every output element must equal the scalar
// restatement of its association bit for bit, so a compiler or kernel
// change that moves a single training bit fails here rather than in a
// drifted AUC.
TEST(GemmSweepTest, MatchesPerTableAssociationBitForBit) {
  SweepGemm(
      [](Isa isa, const GemmCase& c, const std::vector<float>& got,
         const std::string& what) {
        std::vector<float> want = *c.out0;
        AssociationOf(isa).MatMul(c.a->data(), c.b->data(), want.data(), c.m,
                                  c.k, c.n, c.accumulate, c.stream);
        ExpectSameBits(got, want, what);
      },
      [](Isa isa, const GemmCase& c, const std::vector<float>& got,
         const std::string& what) {
        std::vector<float> want = *c.out0;
        AssociationOf(isa).AddMatMulTransposedA(c.a->data(), c.b->data(),
                                                want.data(), c.m, c.k, c.n);
        ExpectSameBits(got, want, what);
      });
}

// The right-hand operand is read in place when its loads are aligned and
// from an aligned copy otherwise; both must give the restatement's bits.
// Offsets 0..15 floats from a 64-byte line reach both paths on every table.
TEST(GemmSweepTest, OperandAlignmentDoesNotChangeBits) {
  constexpr int64_t kLine = 16;
  for (int64_t m : {4, 5, 33}) {
    for (int64_t k : {16, 48}) {
      for (int64_t n : {7, 48, 144}) {
        const std::string shape = std::to_string(m) + "x" +
                                  std::to_string(k) + "x" + std::to_string(n);
        const std::vector<float> a = SweepInput(m * k, 211 + m, 0.25f);
        const std::vector<float> b = SweepInput(k * n, 311 + n, 1.0f);
        const std::vector<float> at = SweepInput(m * k, 511 + k, 0.25f);
        const std::vector<float> g = SweepInput(m * n, 611 + n, 1.0f);
        const std::vector<float> out0 = RandomVec(m * n, 411 + k);
        const std::vector<float> dw0 = RandomVec(k * n, 711 + m);
        std::vector<float> storage(std::max(k, m) * n + 2 * kLine);
        // Floats past the previous 64-byte line, then the first line start.
        const auto skew = static_cast<int64_t>(
            reinterpret_cast<std::uintptr_t>(storage.data()) / 4 % kLine);
        float* base = storage.data() + (kLine - skew) % kLine;
        for (Isa isa : SupportedIsas()) {
          const Kernels& kern = Get(isa);
          for (int64_t offset = 0; offset < kLine; ++offset) {
            const std::string what = std::string(nn::kernels::IsaName(isa)) +
                                     " " + shape + " offset " +
                                     std::to_string(offset);
            float* placed = base + offset;
            std::copy(b.begin(), b.end(), placed);
            for (bool accumulate : {false, true}) {
              std::vector<float> got = out0;
              kern.matmul_packed(a.data(), placed, got.data(), m, k, n,
                                 accumulate, /*b_pretransposed=*/false);
              std::vector<float> want = out0;
              AssociationOf(isa).MatMul(a.data(), b.data(), want.data(), m, k,
                                        n, accumulate, /*stream=*/false);
              ExpectSameBits(got, want, what + " matmul_packed");
            }
            std::copy(g.begin(), g.end(), placed);
            std::vector<float> got = dw0;
            kern.add_matmul_transposed_a(at.data(), placed, got.data(), m, k,
                                         n);
            std::vector<float> want = dw0;
            AssociationOf(isa).AddMatMulTransposedA(at.data(), g.data(),
                                                    want.data(), m, k, n);
            ExpectSameBits(got, want, what + " add_matmul_transposed_a");
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(GemmSweepTest, DotMatchesTreeAssociationBitForBit) {
  for (int64_t len : kSweepK) {
    const std::vector<float> x = SweepInput(len, 801 + len, 1.0f);
    const std::vector<float> y = SweepInput(len, 901 + len, 1.0f);
    for (Isa isa : SupportedIsas()) {
      const float got = Get(isa).dot(x.data(), y.data(), len);
      const float want =
          AssociationOf(isa).TreeDot(x.data(), 1, y.data(), 1, len);
      EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
          << nn::kernels::IsaName(isa) << " dot " << len;
    }
  }
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
