#ifndef CAUSALTAD_NN_MODULES_H_
#define CAUSALTAD_NN_MODULES_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "util/random.h"

namespace causaltad {
namespace nn {

class Module;

/// A parameter with its hierarchical name ("encoder.fc1.w").
struct NamedParam {
  std::string name;
  Var var;
};

/// Base class for parameterized components. Subclasses register parameters
/// and submodules in their constructors; Parameters()/NamedParameters()
/// traverse the tree. Names are stable across runs, which is what the
/// checkpoint format keys on.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  /// All parameters of this module and its submodules.
  std::vector<Var> Parameters() const;

  /// All parameters with hierarchical dotted names.
  std::vector<NamedParam> NamedParameters() const;

  /// Total number of scalar parameters.
  int64_t NumParams() const;

 protected:
  /// Creates a trainable leaf and registers it under `name`.
  Var RegisterParameter(const std::string& name, Tensor init);

  /// Registers a child (not owned; typically a member of the subclass).
  void RegisterSubmodule(Module* module);

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<NamedParam>* out) const;

  std::string name_;
  std::vector<NamedParam> params_;
  std::vector<Module*> submodules_;
};

/// Fully-connected layer y = x @ w + b, Xavier-initialized.
class Linear : public Module {
 public:
  Linear(std::string name, int64_t in_dim, int64_t out_dim, util::Rng* rng);

  Var Forward(const Var& x) const { return Affine(x, w_, b_); }

  const Var& w() const { return w_; }
  const Var& b() const { return b_; }

 private:
  Var w_, b_;
};

/// Token embedding table [vocab, dim].
class Embedding : public Module {
 public:
  Embedding(std::string name, int64_t vocab, int64_t dim, util::Rng* rng);

  /// Looks up rows -> [ids.size(), dim].
  Var Forward(std::span<const int32_t> ids) const {
    return GatherRows(table_, ids);
  }

  const Var& table() const { return table_; }
  int64_t vocab() const { return table_.value().dim(0); }
  int64_t dim() const { return table_.value().dim(1); }

 private:
  Var table_;
};

/// Gated recurrent unit cell (Cho et al. 2014).
class GruCell : public Module {
 public:
  GruCell(std::string name, int64_t in_dim, int64_t hidden_dim,
          util::Rng* rng);

  /// One step: x [1,in], h [1,hidden] -> h' [1,hidden]. Composed from
  /// differentiable ops; this is the training path and the reference
  /// implementation for StepFused.
  Var Step(const Var& x, const Var& h) const;

  /// Inference fast path: computes all three gates in one pass over
  /// thread-local arena scratch using the packed MatMul kernel, with no
  /// intermediate Vars. Accepts batches — x [B,in], h [B,hidden] ->
  /// h' [B,hidden]. Numerically equivalent to Step. Falls back to the
  /// op-composed Step whenever a tape is being recorded and some input
  /// requires gradients, so it is always safe to call.
  Var StepFused(const Var& x, const Var& h) const;

  /// Projects input rows through all three gate input weights at once:
  /// row i of the result is [x_i·Wz | x_i·Wr | x_i·Wh] ([n, 3*hidden]).
  /// Batched rolls feed embedding-table rows as inputs, so projecting each
  /// unique row once and gathering per step removes the input half of the
  /// gate matmuls from the recurrent loop.
  Tensor ProjectInputs(const Tensor& xs) const;

  /// StepFused with pre-projected inputs: `xw` points at `batch` rows of
  /// [3*hidden] floats gathered from a ProjectInputs result. Inference
  /// only — requires an active InferenceGuard.
  Var StepFusedProjected(const float* xw, int64_t batch, const Var& h) const;

  /// Batched *training* step: x [B,in], h [B,hidden] -> h' [B,hidden] as a
  /// single tape node whose hand-written backward reuses the packed MatMul
  /// kernel and the fastmath transcendentals — the tape-aware twin of
  /// StepFused. `finished` (size B, may be empty) marks rows whose sequence
  /// ended before this step: a finished row's state passes through
  /// unchanged and contributes no gradient, which is what lets Fit() roll
  /// variable-length [B, hidden] minibatches through one tape.
  /// Numerically equivalent to Step (values and gradients).
  Var StepBatched(const Var& x, const Var& h,
                  std::span<const uint8_t> finished = {}) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  /// Shared fused-step tail: given gate buffers pre-filled with the input
  /// projections (z = xWz, r = xWr, c = xWh), adds the recurrent terms and
  /// applies the nonlinearities in one pass. Buffers are arena scratch.
  Var FusedGateTail(const Tensor& th, int64_t batch, float* z, float* r,
                    float* c) const;

  int64_t hidden_dim_;
  Var wz_, uz_, bz_;
  Var wr_, ur_, br_;
  Var wh_, uh_, bh_;
};

/// Multilayer perceptron with tanh activations between layers (none after
/// the last).
class Mlp : public Module {
 public:
  Mlp(std::string name, const std::vector<int64_t>& dims, util::Rng* rng);

  Var Forward(const Var& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace nn
}  // namespace causaltad

#endif  // CAUSALTAD_NN_MODULES_H_
