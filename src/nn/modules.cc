#include "nn/modules.h"

#include <cmath>

#include "nn/init.h"
#include "nn/kernels/kernels.h"
#include "util/logging.h"

namespace causaltad {
namespace nn {

using kernels::Kernels;

std::vector<Var> Module::Parameters() const {
  std::vector<Var> out;
  for (const NamedParam& p : params_) out.push_back(p.var);
  for (const Module* m : submodules_) {
    auto sub = m->Parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

void Module::CollectNamed(const std::string& prefix,
                          std::vector<NamedParam>* out) const {
  const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
  for (const NamedParam& p : params_) {
    out->push_back({base + "." + p.name, p.var});
  }
  for (const Module* m : submodules_) m->CollectNamed(base, out);
}

std::vector<NamedParam> Module::NamedParameters() const {
  std::vector<NamedParam> out;
  CollectNamed("", &out);
  return out;
}

int64_t Module::NumParams() const {
  int64_t total = 0;
  for (const Var& p : Parameters()) total += p.value().numel();
  return total;
}

Var Module::RegisterParameter(const std::string& name, Tensor init) {
  Var v(std::move(init), /*requires_grad=*/true);
  params_.push_back({name, v});
  return v;
}

void Module::RegisterSubmodule(Module* module) {
  CAUSALTAD_CHECK(module != nullptr);
  submodules_.push_back(module);
}

Linear::Linear(std::string name, int64_t in_dim, int64_t out_dim,
               util::Rng* rng)
    : Module(std::move(name)) {
  w_ = RegisterParameter("w", XavierUniform(in_dim, out_dim, rng));
  b_ = RegisterParameter("b", Tensor::Zeros({1, out_dim}));
}

Embedding::Embedding(std::string name, int64_t vocab, int64_t dim,
                     util::Rng* rng)
    : Module(std::move(name)) {
  table_ = RegisterParameter("table", GaussianInit({vocab, dim}, 0.1, rng));
}

GruCell::GruCell(std::string name, int64_t in_dim, int64_t hidden_dim,
                 util::Rng* rng)
    : Module(std::move(name)), hidden_dim_(hidden_dim) {
  wz_ = RegisterParameter("wz", XavierUniform(in_dim, hidden_dim, rng));
  uz_ = RegisterParameter("uz", XavierUniform(hidden_dim, hidden_dim, rng));
  bz_ = RegisterParameter("bz", Tensor::Zeros({1, hidden_dim}));
  wr_ = RegisterParameter("wr", XavierUniform(in_dim, hidden_dim, rng));
  ur_ = RegisterParameter("ur", XavierUniform(hidden_dim, hidden_dim, rng));
  br_ = RegisterParameter("br", Tensor::Zeros({1, hidden_dim}));
  wh_ = RegisterParameter("wh", XavierUniform(in_dim, hidden_dim, rng));
  uh_ = RegisterParameter("uh", XavierUniform(hidden_dim, hidden_dim, rng));
  bh_ = RegisterParameter("bh", Tensor::Zeros({1, hidden_dim}));
}

Var GruCell::Step(const Var& x, const Var& h) const {
  const Var z = Sigmoid(Add(Add(MatMul(x, wz_), MatMul(h, uz_)), bz_));
  const Var r = Sigmoid(Add(Add(MatMul(x, wr_), MatMul(h, ur_)), br_));
  const Var candidate =
      Tanh(Add(Add(MatMul(x, wh_), MatMul(Mul(r, h), uh_)), bh_));
  // h' = h + z ⊙ (candidate - h)
  return Add(h, Mul(z, Sub(candidate, h)));
}

Var GruCell::StepFused(const Var& x, const Var& h) const {
  if (!InferenceGuard::active() &&
      (x.requires_grad() || h.requires_grad() || wz_.requires_grad())) {
    return Step(x, h);
  }
  const Tensor& tx = x.value();
  const Tensor& th = h.value();
  CAUSALTAD_DCHECK_EQ(tx.dim(0), th.dim(0));
  CAUSALTAD_DCHECK_EQ(th.dim(1), hidden_dim_);
  const int64_t batch = tx.dim(0);
  const int64_t in = tx.dim(1);
  const int64_t hd = hidden_dim_;

  const Kernels& kern = kernels::Active();
  internal::ArenaScope scope;
  float* z = internal::ArenaAlloc(batch * hd);
  float* r = internal::ArenaAlloc(batch * hd);
  float* c = internal::ArenaAlloc(batch * hd);

  // Input halves of the gate pre-activations: z = xWz, r = xWr, c = xWh.
  kern.matmul_packed(tx.data(), wz_.value().data(), z, batch, in, hd, false,
                     false);
  kern.matmul_packed(tx.data(), wr_.value().data(), r, batch, in, hd, false,
                     false);
  kern.matmul_packed(tx.data(), wh_.value().data(), c, batch, in, hd, false,
                     false);
  return FusedGateTail(th, batch, z, r, c);
}

Tensor GruCell::ProjectInputs(const Tensor& xs) const {
  const int64_t n = xs.dim(0);
  const int64_t in = xs.dim(1);
  const int64_t hd = hidden_dim_;
  // [Wz | Wr | Wh] packed side by side in arena scratch: one gemm against
  // it is identical math to three separate input-weight gemms, amortized
  // over every unique row.
  internal::ArenaScope scope;
  float* fused = internal::ArenaAlloc(in * 3 * hd);
  for (int64_t p = 0; p < in; ++p) {
    std::copy(wz_.value().data() + p * hd, wz_.value().data() + (p + 1) * hd,
              fused + p * 3 * hd);
    std::copy(wr_.value().data() + p * hd, wr_.value().data() + (p + 1) * hd,
              fused + p * 3 * hd + hd);
    std::copy(wh_.value().data() + p * hd, wh_.value().data() + (p + 1) * hd,
              fused + p * 3 * hd + 2 * hd);
  }
  Tensor out({n, 3 * hd});
  kernels::Active().matmul_packed(xs.data(), fused, out.data(), n, in, 3 * hd,
                                  false, false);
  return out;
}

Var GruCell::StepFusedProjected(const float* xw, int64_t batch,
                                const Var& h) const {
  CAUSALTAD_CHECK(InferenceGuard::active());
  const Tensor& th = h.value();
  CAUSALTAD_DCHECK_EQ(th.dim(0), batch);
  const int64_t hd = hidden_dim_;
  internal::ArenaScope scope;
  float* z = internal::ArenaAlloc(batch * hd);
  float* r = internal::ArenaAlloc(batch * hd);
  float* c = internal::ArenaAlloc(batch * hd);
  for (int64_t b = 0; b < batch; ++b) {
    const float* row = xw + b * 3 * hd;
    std::copy(row, row + hd, z + b * hd);
    std::copy(row + hd, row + 2 * hd, r + b * hd);
    std::copy(row + 2 * hd, row + 3 * hd, c + b * hd);
  }
  return FusedGateTail(th, batch, z, r, c);
}

Var GruCell::StepBatched(const Var& x, const Var& h,
                         std::span<const uint8_t> finished) const {
  const Tensor& tx = x.value();
  const Tensor& th = h.value();
  CAUSALTAD_DCHECK_EQ(tx.dim(0), th.dim(0));
  CAUSALTAD_DCHECK_EQ(th.dim(1), hidden_dim_);
  const int64_t batch = tx.dim(0);
  const int64_t in = tx.dim(1);
  const int64_t hd = hidden_dim_;
  CAUSALTAD_DCHECK(finished.empty() ||
                   static_cast<int64_t>(finished.size()) == batch);

  // Post-activation gates, saved for the backward pass (heap, not arena —
  // the tape outlives this call). Planes: z rows [0,B), r rows [B,2B),
  // candidate rows [2B,3B).
  auto acts = std::make_shared<Tensor>(Tensor({3 * batch, hd}));
  float* z = acts->data();
  float* r = z + batch * hd;
  float* c = r + batch * hd;

  const Kernels& kern = kernels::Active();
  internal::ArenaScope scope;
  // Input halves, then recurrent halves accumulated on top.
  kern.matmul_packed(tx.data(), wz_.value().data(), z, batch, in, hd, false,
                     false);
  kern.matmul_packed(tx.data(), wr_.value().data(), r, batch, in, hd, false,
                     false);
  kern.matmul_packed(tx.data(), wh_.value().data(), c, batch, in, hd, false,
                     false);
  kern.matmul_packed(th.data(), uz_.value().data(), z, batch, hd, hd,
                     /*accumulate=*/true, false);
  kern.matmul_packed(th.data(), ur_.value().data(), r, batch, hd, hd,
                     /*accumulate=*/true, false);
  float* rh = internal::ArenaAlloc(batch * hd);
  kern.gru_gates_zr(th.data(), bz_.value().data(), br_.value().data(), z, r,
                    rh, batch, hd);
  kern.matmul_packed(rh, uh_.value().data(), c, batch, hd, hd,
                     /*accumulate=*/true, false);

  Tensor out({batch, hd});
  kern.gru_out_blend(th.data(), bh_.value().data(), z, c, out.data(),
                     finished.empty() ? nullptr : finished.data(), batch, hd);

  std::function<void()>* slot = nullptr;
  Node* self = nullptr;
  Var result = internal::MakeOp(
      std::move(out),
      {x, h, wz_, uz_, bz_, wr_, ur_, br_, wh_, uh_, bh_}, &slot, &self);
  if (slot == nullptr) return result;

  Node* nx = x.node().get();
  Node* nh = h.node().get();
  Node* nwz = wz_.node().get();
  Node* nuz = uz_.node().get();
  Node* nbz = bz_.node().get();
  Node* nwr = wr_.node().get();
  Node* nur = ur_.node().get();
  Node* nbr = br_.node().get();
  Node* nwh = wh_.node().get();
  Node* nuh = uh_.node().get();
  Node* nbh = bh_.node().get();
  std::vector<uint8_t> fin(finished.begin(), finished.end());
  *slot = [self, nx, nh, nwz, nuz, nbz, nwr, nur, nbr, nwh, nuh, nbh, acts,
           fin, batch, in, hd]() {
    const Kernels& kern = kernels::Active();
    const float* g = self->grad.data();
    const float* z = acts->data();
    const float* r = z + batch * hd;
    const float* c = r + batch * hd;
    const float* hv = nh->value.data();

    internal::ArenaScope scope;
    float* da_z = internal::ArenaAlloc(batch * hd);
    float* da_r = internal::ArenaAlloc(batch * hd);
    float* da_c = internal::ArenaAlloc(batch * hd);
    float* drh = internal::ArenaAlloc(batch * hd);
    float* rh = internal::ArenaAlloc(batch * hd);

    // Pass 1 — gate pre-activation grads that only need z, c, h and g:
    //   dz = g ⊙ (c - h),  da_z = dz · z(1-z)
    //   dc = g ⊙ z,        da_c = dc · (1-c²)
    for (int64_t b = 0; b < batch; ++b) {
      float* dazr = da_z + b * hd;
      float* dacr = da_c + b * hd;
      if (!fin.empty() && fin[b]) {
        std::fill(dazr, dazr + hd, 0.0f);
        std::fill(dacr, dacr + hd, 0.0f);
        continue;
      }
      const float* grow = g + b * hd;
      const float* zrow = z + b * hd;
      const float* crow = c + b * hd;
      const float* hrow = hv + b * hd;
      for (int64_t j = 0; j < hd; ++j) {
        dazr[j] = grow[j] * (crow[j] - hrow[j]) * zrow[j] * (1.0f - zrow[j]);
        dacr[j] = grow[j] * zrow[j] * (1.0f - crow[j] * crow[j]);
      }
    }

    // d(r⊙h) = da_c · Uhᵀ (Uh row-major is already the pretransposed
    // layout the packed kernel wants).
    kern.matmul_packed(da_c, nuh->value.data(), drh, batch, hd, hd,
                       /*accumulate=*/false, /*b_pretransposed=*/true);

    // Pass 2 — da_r = (drh ⊙ h) · r(1-r), the r⊙h operand for dUh, and the
    // elementwise parts of dh: g ⊙ (1-z) + drh ⊙ r (finished rows pass g
    // straight through).
    const bool need_dh = nh->requires_grad;
    if (need_dh) nh->EnsureGrad();
    for (int64_t b = 0; b < batch; ++b) {
      float* darr = da_r + b * hd;
      float* rhrow = rh + b * hd;
      const float* rrow = r + b * hd;
      const float* hrow = hv + b * hd;
      float* dhrow = need_dh ? nh->grad.data() + b * hd : nullptr;
      if (!fin.empty() && fin[b]) {
        std::fill(darr, darr + hd, 0.0f);
        std::fill(rhrow, rhrow + hd, 0.0f);
        if (dhrow != nullptr) {
          const float* grow = g + b * hd;
          for (int64_t j = 0; j < hd; ++j) dhrow[j] += grow[j];
        }
        continue;
      }
      const float* grow = g + b * hd;
      const float* zrow = z + b * hd;
      const float* drhrow = drh + b * hd;
      for (int64_t j = 0; j < hd; ++j) {
        darr[j] = drhrow[j] * hrow[j] * rrow[j] * (1.0f - rrow[j]);
        rhrow[j] = rrow[j] * hrow[j];
        if (dhrow != nullptr) {
          dhrow[j] += grow[j] * (1.0f - zrow[j]) + drhrow[j] * rrow[j];
        }
      }
    }

    // Matrix halves of dh and dx, then the weight/bias accumulations.
    if (need_dh) {
      kern.matmul_packed(da_z, nuz->value.data(), nh->grad.data(), batch, hd,
                         hd, /*accumulate=*/true, /*b_pretransposed=*/true);
      kern.matmul_packed(da_r, nur->value.data(), nh->grad.data(), batch, hd,
                         hd, /*accumulate=*/true, /*b_pretransposed=*/true);
    }
    if (nx->requires_grad) {
      nx->EnsureGrad();
      kern.matmul_packed(da_z, nwz->value.data(), nx->grad.data(), batch, hd,
                         in, /*accumulate=*/true, /*b_pretransposed=*/true);
      kern.matmul_packed(da_r, nwr->value.data(), nx->grad.data(), batch, hd,
                         in, /*accumulate=*/true, /*b_pretransposed=*/true);
      kern.matmul_packed(da_c, nwh->value.data(), nx->grad.data(), batch, hd,
                         in, /*accumulate=*/true, /*b_pretransposed=*/true);
    }
    const float* xv = nx->value.data();
    const auto weight_grad = [&](Node* nw, const float* da, const float* lhs,
                                 int64_t lhs_cols) {
      if (!nw->requires_grad) return;
      nw->EnsureGrad();
      kern.add_matmul_transposed_a(lhs, da, nw->grad.data(), batch, lhs_cols,
                                   hd);
    };
    weight_grad(nwz, da_z, xv, in);
    weight_grad(nwr, da_r, xv, in);
    weight_grad(nwh, da_c, xv, in);
    weight_grad(nuz, da_z, hv, hd);
    weight_grad(nur, da_r, hv, hd);
    weight_grad(nuh, da_c, rh, hd);
    const auto bias_grad = [&](Node* nb, const float* da) {
      if (!nb->requires_grad) return;
      nb->EnsureGrad();
      for (int64_t b = 0; b < batch; ++b) {
        const float* darow = da + b * hd;
        for (int64_t j = 0; j < hd; ++j) nb->grad[j] += darow[j];
      }
    };
    bias_grad(nbz, da_z);
    bias_grad(nbr, da_r);
    bias_grad(nbh, da_c);
  };
  return result;
}

Var GruCell::FusedGateTail(const Tensor& th, int64_t batch, float* z,
                           float* r, float* c) const {
  const int64_t hd = hidden_dim_;
  const Kernels& kern = kernels::Active();
  // Recurrent halves: z += hUz, r += hUr (the candidate's hU term needs the
  // finished r first).
  kern.matmul_packed(th.data(), uz_.value().data(), z, batch, hd, hd,
                     /*accumulate=*/true, false);
  kern.matmul_packed(th.data(), ur_.value().data(), r, batch, hd, hd,
                     /*accumulate=*/true, false);

  // One fused pass: bias + sigmoid for z and r, then r ⊙ h (rh aliases the
  // r buffer — inference never needs the post-sigmoid r again) for the
  // candidate's recurrent matmul.
  kern.gru_gates_zr(th.data(), bz_.value().data(), br_.value().data(), z, r,
                    /*rh=*/r, batch, hd);
  kern.matmul_packed(r, uh_.value().data(), c, batch, hd, hd,
                     /*accumulate=*/true, false);

  // h' = h + z ⊙ (tanh(c + bh) - h), written straight into the output.
  Tensor out({batch, hd});
  kern.gru_out_blend(th.data(), bh_.value().data(), z, c, out.data(),
                     /*finished=*/nullptr, batch, hd);
  return Var(std::move(out), /*requires_grad=*/false);
}

Mlp::Mlp(std::string name, const std::vector<int64_t>& dims, util::Rng* rng)
    : Module(std::move(name)) {
  CAUSALTAD_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>("fc" + std::to_string(i),
                                               dims[i], dims[i + 1], rng));
    RegisterSubmodule(layers_.back().get());
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = Tanh(h);
  }
  return h;
}

}  // namespace nn
}  // namespace causaltad
