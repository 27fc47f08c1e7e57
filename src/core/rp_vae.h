#ifndef CAUSALTAD_CORE_RP_VAE_H_
#define CAUSALTAD_CORE_RP_VAE_H_

#include <span>
#include <vector>

#include "nn/modules.h"
#include "roadnet/road_network.h"
#include "util/random.h"

namespace causaltad {
namespace core {

/// Road Preference VAE configuration (paper §V-C).
struct RpVaeConfig {
  int64_t vocab = 0;  // number of road segments; required
  int64_t emb_dim = 32;
  int64_t hidden_dim = 64;
  int64_t latent_dim = 16;
  /// Paper §V-E3 (future work): road preference E is actually
  /// time-dependent (rush-hour congestion). When > 0, the encoder is
  /// conditioned on the departure time slot and the scaling factor is
  /// factorized per (segment, slot) instead of per segment. 0 reproduces
  /// the published (static-E) model.
  int num_time_slots = 0;
  int64_t slot_emb_dim = 8;
};

/// RP-VAE: per-road-segment VAE used to estimate the debiasing scaling
/// factor E_{e_i ~ P(E_i|t_i)}[ 1 / P(t_i|e_i) ] of Eq. (7).
///
/// The encoder Ψe maps a segment embedding to the posterior Q2(E_i|t_i);
/// the decoder Ψd maps a latent sample back to a distribution over all
/// segments. Both are MLPs; every segment is processed independently, which
/// is what makes precomputing the scaling factors possible.
class RpVae : public nn::Module {
 public:
  RpVae(const RpVaeConfig& config, util::Rng* rng);

  /// Training loss L2(t) = Σ_i [ H(t̂_i, t_i) + KL_i ]. Latents are sampled
  /// via reparameterization from `rng`; processed as one batch of rows.
  /// `time_slot` is ignored unless time conditioning is enabled.
  nn::Var Loss(std::span<const roadnet::SegmentId> segments, util::Rng* rng,
               int time_slot = 0) const;

  /// Minibatched Loss over segments drawn from several trips: row i is
  /// conditioned on slots[i] (per-segment departure slot; empty means slot
  /// 0 everywhere). This is what lets CausalTad::Fit fold a whole
  /// minibatch's L2 terms into one tape even under time-aware scaling.
  nn::Var LossBatch(std::span<const roadnet::SegmentId> segments,
                    std::span<const int32_t> slots, util::Rng* rng) const;

  /// Inference-time negative ELBO of one segment (z = posterior mean).
  /// This is the standalone RP-VAE anomaly score of the paper's ablation.
  double SegmentNll(roadnet::SegmentId segment, int time_slot = 0) const;

  /// Batched SegmentNll on the no-grad fast path: one encoder/decoder pass
  /// over all segments (repeats allowed). out[i] == SegmentNll(segments[i],
  /// time_slot).
  std::vector<double> SegmentNllBatch(
      std::span<const roadnet::SegmentId> segments, int time_slot = 0) const;

  /// Monte-Carlo estimate of log E_{e ~ Q2(E|s)}[ 1 / P(s|e) ] with
  /// `num_samples` posterior samples (log-sum-exp aggregated, so large
  /// 1/P values cannot overflow).
  double LogScalingFactor(roadnet::SegmentId segment, int num_samples,
                          util::Rng* rng, int time_slot = 0) const;

  bool time_conditioned() const { return config_.num_time_slots > 0; }
  const RpVaeConfig& config() const { return config_; }

 private:
  struct Posterior {
    nn::Var mu, logvar;
  };
  Posterior Encode(std::span<const int32_t> ids, int time_slot) const;
  /// Per-row-slot variant (slots empty means unconditioned / slot 0).
  Posterior EncodeRows(std::span<const int32_t> ids,
                       std::span<const int32_t> slots) const;

  RpVaeConfig config_;
  nn::Embedding emb_;   // Es
  nn::Linear enc_fc_;   // Ψe body
  nn::Linear mu_head_;
  nn::Linear lv_head_;
  nn::Linear dec_;      // Ψd
  std::unique_ptr<nn::Embedding> slot_emb_;  // time extension only
};

/// Precomputed log scaling factors (paper §V-D: "calculate and store the
/// scaling factor for all road segments in advance"). One value per segment
/// for the published static-E model, one per (slot, segment) for the
/// time-aware extension. Lookup is O(1), which is what keeps online
/// debiased scoring O(1) per point.
class ScalingTable {
 public:
  ScalingTable() = default;

  /// Builds the table for every segment (and slot, when the RP-VAE is time
  /// conditioned). Deterministic given `seed`.
  static ScalingTable Build(const RpVae& rp_vae, int64_t vocab,
                            int num_samples, uint64_t seed);

  double log_scaling(roadnet::SegmentId segment, int slot = 0) const {
    return values_[(num_slots_ > 1 ? slot : 0) * vocab_ + segment];
  }
  const std::vector<double>& values() const { return values_; }
  bool empty() const { return values_.empty(); }
  int num_slots() const { return num_slots_; }

  /// Per-segment values of one slot, centred to zero mean (used for the
  /// paper's Fig. 4 visualization, which "centralizes the scaling factor
  /// part").
  std::vector<double> Centered(int slot = 0) const;

  /// Subtracts each slot's mean from its values, making the table measure
  /// *relative* segment rarity. Without centering, every segment carries a
  /// large common offset (log E[1/P] >= -log marginal frequency), so the
  /// debiasing term would mostly reward longer trajectories — and detours
  /// are longer. The paper itself centralizes the scaling-factor part when
  /// inspecting scores (Fig. 4); CausalTadConfig::center_scaling applies
  /// the same normalization to the score.
  void CenterInPlace();

 private:
  std::vector<double> values_;
  int64_t vocab_ = 0;
  int num_slots_ = 1;
};

}  // namespace core
}  // namespace causaltad

#endif  // CAUSALTAD_CORE_RP_VAE_H_
