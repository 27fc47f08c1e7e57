#ifndef CAUSALTAD_CORE_TG_VAE_H_
#define CAUSALTAD_CORE_TG_VAE_H_

#include <memory>
#include <span>
#include <vector>

#include "nn/modules.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"
#include "util/random.h"

namespace causaltad {
namespace core {

/// Trajectory Generation VAE configuration (paper §V-B).
struct TgVaeConfig {
  int64_t vocab = 0;  // number of road segments; required
  int64_t emb_dim = 48;
  int64_t hidden_dim = 64;
  int64_t latent_dim = 32;
  /// Ablation: reconstruct the SD pair from the posterior (guards against
  /// posterior collapse; paper §V-B(1)).
  bool use_sd_decoder = true;
  /// Ablation: mask next-segment prediction to road-network successors
  /// (paper §V-B(2)). When false a full-vocabulary softmax is used.
  bool road_constrained = true;
};

/// TG-VAE: estimates the likelihood P(c, t) of Eq. (2).
///
/// Architecture (paper Fig. 3, upper-left):
///  * SD encoder Φe    — Q1(R | c): MLP over [Ec(s); Ec(d)] → (μ_r, σ_r).
///  * SD decoder Φc    — P(c | r): predicts ŝ and d̂ from r.
///  * Trajectory decoder Φt — P(t | r): GRU over Er(t_j) with h_0 = f(r);
///    the state after consuming t_j predicts t_{j+1} over the successors of
///    t_j only (road-constrained prediction).
///
/// s and d are the first and last road segments of the trajectory (the trip
/// endpoints fixed when the ride-hailing order is placed).
class TgVae : public nn::Module {
 public:
  TgVae(const roadnet::RoadNetwork* network, const TgVaeConfig& config,
        util::Rng* rng);

  /// Training loss L1(c,t) = H(ŝ,s) + H(d̂,d) + Σ H(t̂_j, t_j) + KL.
  /// The latent is sampled via reparameterization from `rng`.
  nn::Var Loss(const traj::Trip& trip, util::Rng* rng) const;

  /// Minibatched Loss on one tape: all SD pairs encoded as one batch, the
  /// route decoder rolled as a masked [B, hidden] batch (batched fused GRU
  /// steps), and every live step's road-constrained CE reduced by a single
  /// subset-softmax op. Returns the sum of the per-trip losses; gradients
  /// match per-trip Loss accumulation to float rounding.
  nn::Var LossBatch(std::span<const traj::Trip* const> trips,
                    util::Rng* rng) const;

  /// Inference-time score decomposition with r = posterior mean.
  struct ScoreParts {
    double sd_nll = 0.0;  // H(ŝ,s) + H(d̂,d)
    double kl = 0.0;
    /// step_nll[j] = -log P(t_{j+1} | r, t_{<=j}); size n-1.
    std::vector<double> step_nll;

    /// Negative ELBO of the first `prefix_len` segments.
    double PrefixScore(int64_t prefix_len) const;
  };
  ScoreParts Score(const traj::Trip& trip) const;

  /// Derived no-grad tables the serving step reads, rebuilt whenever the
  /// weights change (CausalTad caches one set next to the scaling table).
  /// Memory: vocab × 4·hidden floats — the projection alone is ~0.35 MB at
  /// 610 segments and hidden 48, ~58 MB at a 10^5-segment vocab.
  struct ServingTables {
    /// Output weights transposed to [vocab, hidden]: each successor-masked
    /// logit is one contiguous dot instead of a vocab-strided column walk.
    nn::Tensor out_wt;
    /// Every segment's gate-input projection [vocab, 3·hidden], row s =
    /// [Er(s)·Wz | Er(s)·Wr | Er(s)·Wh].
    nn::Tensor gate_in;
  };
  ServingTables BuildServingTables() const;

  /// Batched inference scoring on the no-grad path: EncodeSdBatch for the
  /// SD contexts, then a masked time loop of StepNllRows over the [B,
  /// hidden] state matrix. parts[i] matches Score(trips[i]). A non-empty
  /// `prefix_lens` caps row i's decoding at the steps
  /// PrefixScore(prefix_lens[i]) needs; empty decodes full routes.
  /// `tables` null builds a fresh set for this call.
  std::vector<ScoreParts> ScoreBatch(
      std::span<const traj::Trip> trips,
      std::span<const int64_t> prefix_lens = {},
      const ServingTables* tables = nullptr) const;

  /// No-grad SD-pair context of a batch of trips: the initial decoder
  /// states h0 = tanh(f(μ_r)) [B, hidden] and each trip's sd_nll and kl.
  /// Trips sharing an SD pair share one encode, so the [U, vocab] SD-head
  /// logits scale with unique pairs U, not batch size.
  struct SdContext {
    nn::Tensor h0;
    std::vector<double> sd_nll;
    std::vector<double> kl;
  };
  SdContext EncodeSdBatch(
      std::span<const roadnet::SegmentId> sources,
      std::span<const roadnet::SegmentId> destinations) const;

  /// One O(d² + deg·d) decoder step: consumes `current` and returns
  /// -log P(next | ·) plus the updated hidden state. Taped reference path
  /// for the no-grad StepNllRows.
  double StepNll(roadnet::SegmentId current, roadnet::SegmentId next,
                 nn::Var* hidden) const;

  /// The no-grad decoder step every serving path runs (ScoreBatch, the
  /// CausalTad sessions, serve::StreamingBatcher): entry k consumes
  /// transition current[k] -> next[k] on row rows[k] of `states` ([*,
  /// hidden] row-major, rows distinct within one call), updating the row in
  /// place and writing -log P(next[k] | r, t_<=) into nll[k]. One fused GRU
  /// step over gate inputs gathered from `tables`, plus one
  /// successor-masked softmax per entry (a full-vocabulary one when road
  /// constraining is off); entries shard across the worker pool.
  void StepNllRows(const ServingTables& tables,
                   std::span<const roadnet::SegmentId> current,
                   std::span<const roadnet::SegmentId> next,
                   std::span<const int64_t> rows, float* states,
                   double* nll) const;

  const TgVaeConfig& config() const { return config_; }

 private:
  struct Forwarded {
    nn::Var mu, logvar, r;
  };
  Forwarded EncodeSd(roadnet::SegmentId s, roadnet::SegmentId d,
                     util::Rng* rng) const;
  nn::Var SdDecoderNll(const nn::Var& r, roadnet::SegmentId s,
                       roadnet::SegmentId d) const;
  /// CE of predicting `next` from `hidden` after consuming `current`.
  nn::Var StepCe(const nn::Var& hidden, roadnet::SegmentId current,
                 roadnet::SegmentId next) const;

  /// ScoreBatch body for one shard of rows: decodes steps[rows[a]] steps
  /// of trips[rows[a]] and writes out[rows[a]]. ScoreBatch builds the
  /// shards (length-bucketed by decode steps when enabled) and runs one
  /// chunk per worker.
  void ScoreBatchChunk(const ServingTables& tables,
                       std::span<const traj::Trip> trips,
                       std::span<const int64_t> steps,
                       std::span<const int64_t> rows, ScoreParts* out) const;

  const roadnet::RoadNetwork* network_;
  TgVaeConfig config_;
  nn::Embedding sd_emb_;     // Ec
  nn::Embedding route_emb_;  // Er
  nn::Linear enc_fc_;
  nn::Linear mu_head_;
  nn::Linear lv_head_;
  nn::Linear dec_fc_;
  nn::Linear head_s_;
  nn::Linear head_d_;
  nn::Linear h0_proj_;
  nn::GruCell gru_;
  nn::Linear out_;
};

}  // namespace core
}  // namespace causaltad

#endif  // CAUSALTAD_CORE_TG_VAE_H_
