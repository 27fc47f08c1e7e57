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

/// A parameter with its hierarchical name ("encoder.fc1.w"). `owner` is the
/// module the parameter was registered on (null for ad-hoc entries built
/// outside a module tree) — the checkpoint writer uses it to recognize
/// embedding tables that carry an int8 serving copy.
struct NamedParam {
  std::string name;
  Var var;
  const Module* owner = nullptr;
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

/// Process-wide switch for serving-path int8 embedding reads. Defaults to
/// the CAUSALTAD_INT8_EMB environment variable (off when unset). When on,
/// every Embedding whose quantized copy is fresh (RefreshQuantized() called
/// since the last table mutation) serves its no-grad reads dequantized from
/// the int8 copy; training-tape gathers always read the fp32 master so
/// gradients keep full precision.
bool Int8EmbeddingsEnabled();
void SetInt8Embeddings(bool enabled);

/// Token embedding table [vocab, dim], with an optional int8 serving copy.
///
/// Quantization format: symmetric per-row absmax int8 —
/// q[i,j] = round(table[i,j] / scale[i]), scale[i] = absmax(row i)/127.
/// The fp32 table stays the single authoritative parameter (gradients
/// scatter into it, checkpoints may persist either representation); the
/// int8 copy is a derived cache refreshed by RefreshQuantized(). Callers
/// that mutate the table (Fit, Load, manual writes) must re-refresh before
/// serving — the CausalTad serving-cache rebuild hook does this.
class Embedding : public Module {
 public:
  Embedding(std::string name, int64_t vocab, int64_t dim, util::Rng* rng);

  /// Looks up rows -> [ids.size(), dim]. When the int8 path is active
  /// (switch on + fresh quantized copy) and no tape is being recorded, the
  /// returned values are the dequantized int8 rows — the same values every
  /// other serving-path read sees, so batched and streaming scorers stay
  /// bit-identical. Tape-recording lookups always gather fp32.
  Var Forward(std::span<const int32_t> ids) const;

  /// Gathers rows into out[ids.size() * dim] without building a Var:
  /// dequantized int8 when the int8 path is active, fp32 copies otherwise.
  /// The raw-buffer twin of Forward for the fused scoring paths.
  void GatherRowValues(std::span<const int32_t> ids, float* out) const;

  /// Re-quantizes the int8 copy from the current fp32 table.
  void RefreshQuantized();

  /// True when the switch is on and the quantized copy is fresh — the
  /// condition under which every no-grad read serves int8.
  bool Int8Active() const;

  /// Raw quantized storage for the int8 matmul fast path and the
  /// checkpoint writer. Valid only while Int8Active() / after
  /// RefreshQuantized().
  const int8_t* quantized_rows() const { return quant_.data(); }
  const float* row_scales() const { return scales_.data(); }
  bool has_quantized() const { return quant_valid_; }

  const Var& table() const { return table_; }
  int64_t vocab() const { return table_.value().dim(0); }
  int64_t dim() const { return table_.value().dim(1); }

 private:
  Var table_;
  std::vector<int8_t> quant_;
  std::vector<float> scales_;
  bool quant_valid_ = false;
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

  /// ProjectInputs over an int8-quantized embedding table: multiplies
  /// every row of `q` ([rows, in] int8, per-row `scales`) against the
  /// packed [Wz | Wr | Wh] gate weights through the registry's int8
  /// matmul, reading a quarter of the fp32 bandwidth. Row i of the result
  /// is scales[i] * (q[i,:] · [Wz|Wr|Wh]) ([rows, 3*hidden]).
  Tensor ProjectInputsQuantized(const int8_t* q, const float* scales,
                                int64_t rows, int64_t in_dim) const;

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

  /// Arena-packs [Wz | Wr | Wh] side by side ([in, 3*hidden]); the caller
  /// holds the ArenaScope.
  float* PackedGateWeights(int64_t in) const;

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
