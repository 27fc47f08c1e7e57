#ifndef CAUSALTAD_NN_KERNELS_KERNELS_H_
#define CAUSALTAD_NN_KERNELS_KERNELS_H_

#include <cstdint>

namespace causaltad {
namespace nn {
namespace kernels {

// ---------------------------------------------------------------------------
// Runtime-dispatched compute substrate. One generic implementation
// (kernel_impl.inc) is compiled into three translation units — baseline
// (portable -O2), AVX2+FMA, and AVX-512 — and the best table the host
// supports is selected once by CPUID at first use. Every hot value-level
// kernel in nn/, core/, and serve/ dispatches through Active() instead of
// file-local statics, so a single binary runs as fast as each host allows.
//
// Selection:  CPUID picks the widest supported ISA.  The CAUSALTAD_ISA
// environment variable (baseline|avx2|avx512) overrides it for tests and CI;
// requesting an ISA the host lacks falls back to the best supported one with
// a warning.  SetIsa()/Get() are the programmatic hooks benches and parity
// tests use to pin a backend mid-process.
//
// Determinism: for a fixed table, every kernel is bit-deterministic. The
// row-wise kernels (dot, softmax/NLL, KL, GRU gates and blend, gather, the
// vector transcendentals) never read other rows, so a row's bits do not
// depend on the batch around it. The two GEMM kernels are not batch-
// independent: each output element keeps one of three associations,
// chosen by its position and the call's shape (see matmul_packed below),
// so a row can round differently alone than inside a bigger batch. With
// "the table's multiply-add" meaning fused (one rounding) on avx2/avx512
// and product-then-sum (two roundings) on baseline, and kLanes = 8
// (16 on avx512):
//   tree   kLanes lane partials, lane l taking the products at l, l+kLanes,
//          ... over the full kLanes blocks with the table's multiply-add;
//          lanes reduced pairwise, adjacent pairs first; then the
//          remaining products added in order with the table's
//          multiply-add (this is `dot`).
//   tile   the same lane partials, summed in lane order starting from +0;
//          then the remaining products rounded before each add, on every
//          table.
//   stream out (or 0 when not accumulating), then every product in k order
//          with the table's multiply-add, skipping zero a-entries.
// kernels_test restates these per table and pins them bit for bit.
// Across tables, baseline differs from avx2/avx512 by FMA contraction and
// avx512 additionally by its 16 lanes — parity tests use a 1e-6 relative
// tolerance across tables (1e-5 on cancellation-heavy raw accumulations,
// where the error is relative to the partial products rather than the
// sum) and exact equality within one.
// ---------------------------------------------------------------------------

enum class Isa { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

/// One backend: a table of raw row-major buffer kernels. All pointers are
/// always populated.
struct Kernels {
  Isa isa;
  const char* name;

  /// SIMD-friendly multi-lane dot product of two contiguous length-k rows.
  float (*dot)(const float* a, const float* b, int64_t k);

  /// Packs src [r,c] (row-major) transposed into dst [c,r].
  void (*pack_transpose)(const float* src, int64_t r, int64_t c, float* dst);

  /// out[m,n] = a[m,k] @ b[k,n] (+= when `accumulate`, which adds the
  /// finished dot to out). `b_pretransposed` means b is stored [n,k]
  /// row-major (e.g. every dX = dY·Wᵀ backward term). Unless the rows
  /// stream (below), b is read as row-major [k,n] with aligned SIMD loads:
  /// in place when it allows them, else from a 64-byte-aligned copy in
  /// thread-local arena scratch. Associations (see above):
  /// with m < 4 and b not pretransposed, every element streams. Otherwise rows
  /// 2i, 2i+1 take the tile association on columns below n - n % 4 and
  /// the tree on the rest, and an odd last row takes the tree throughout.
  void (*matmul_packed)(const float* a, const float* b, float* out, int64_t m,
                        int64_t k, int64_t n, bool accumulate,
                        bool b_pretransposed);

  /// Grad-accumulate helper: out[k,n] += a[m,k]ᵀ @ g[m,n] — the dW = Xᵀ·dY
  /// half of every affine/GRU backward. Each element adds a tree dot over
  /// the m rows. g is read with aligned loads, like matmul_packed's b.
  void (*add_matmul_transposed_a)(const float* a, const float* g, float* out,
                                  int64_t m, int64_t k, int64_t n);

  /// Elementwise transcendental vector ops (fastmath polynomials, compiled
  /// per-TU so the op-composed and fused paths stay bit-identical).
  void (*exp_vec)(const float* x, float* out, int64_t n);
  void (*tanh_vec)(const float* x, float* out, int64_t n);
  void (*sigmoid_vec)(const float* x, float* out, int64_t n);

  /// Row softmax (max-shifted) of one length-n logits row into out.
  void (*softmax_row)(const float* logits, int64_t n, float* out);

  /// -log softmax(row)[target] for one length-n logits row (max-shifted,
  /// 1e-12 probability floor).
  float (*softmax_nll_row)(const float* row, int64_t n, int64_t target);

  /// KL( N(mu, diag(exp(lv))) || N(0,I) ) of one length-n row.
  float (*kl_standard_normal_row)(const float* mu, const float* lv, int64_t n);

  /// Fused GRU gate pass over a [batch, hd] block:
  ///   z = sigmoid(z + bz);  r = sigmoid(r + br);  rh = r ⊙ h.
  /// rh may alias r (the inference tail reuses the buffer); when it does,
  /// the post-sigmoid r is not preserved.
  void (*gru_gates_zr)(const float* h, const float* bz, const float* br,
                       float* z, float* r, float* rh, int64_t batch,
                       int64_t hd);

  /// Fused GRU output blend: c = tanh(c + bh) (updated in place — the
  /// batched-tape backward reads the post-activation), out = h + z⊙(c - h).
  /// Rows with finished[b] != 0 copy h through and leave c untouched;
  /// `finished` may be null.
  void (*gru_out_blend)(const float* h, const float* bh, const float* z,
                        float* c, float* out, const uint8_t* finished,
                        int64_t batch, int64_t hd);

  /// Embedding gather: out[i,:] = table[ids[i],:] for n rows of width d.
  void (*gather_rows_f32)(const float* table, int64_t d, const int32_t* ids,
                          int64_t n, float* out);
};

/// The table selected for this process (CPUID best, CAUSALTAD_ISA override,
/// or the last SetIsa). Never null; cheap enough to call per-op.
const Kernels& Active();

/// The ISA of Active().
Isa ActiveIsa();

/// True when this host can execute `isa`.
bool Supported(Isa isa);

/// The table for a specific ISA. CHECK-fails if unsupported on this host.
const Kernels& Get(Isa isa);

/// Pins Active() to `isa` for the rest of the process (parity tests and the
/// fig7_isa bench). CHECK-fails if unsupported. Not thread-safe against
/// concurrent kernel users — call before spawning workers.
void SetIsa(Isa isa);

const char* IsaName(Isa isa);

}  // namespace kernels
}  // namespace nn
}  // namespace causaltad

#endif  // CAUSALTAD_NN_KERNELS_KERNELS_H_
