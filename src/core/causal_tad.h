#ifndef CAUSALTAD_CORE_CAUSAL_TAD_H_
#define CAUSALTAD_CORE_CAUSAL_TAD_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rp_vae.h"
#include "core/tg_vae.h"
#include "models/scorer.h"
#include "roadnet/road_network.h"

namespace causaltad {
namespace core {

/// Full CausalTAD configuration.
struct CausalTadConfig {
  TgVaeConfig tg;
  RpVaeConfig rp;
  /// λ of Eq. (10): balances the likelihood and the scaling factor. The
  /// paper's grid search lands on 0.1.
  float lambda = 0.1f;
  /// Monte-Carlo samples per segment when precomputing scaling factors.
  int scaling_samples = 16;
  uint64_t scaling_seed = 4242;
  /// The paper's §V-E3 future-work extension: condition the RP-VAE on the
  /// departure time slot and factorize the scaling factor per
  /// (segment, slot). Off by default (published model).
  bool time_aware_scaling = false;
  int num_time_slots = 8;
  /// Centre the precomputed scaling factors to zero mean over the network
  /// (see ScalingTable::CenterInPlace). On by default; disable to ablate.
  bool center_scaling = true;
};

/// Which parts of the debiased score to use; kFull is CausalTAD, the other
/// two are the paper's Table III ablations.
enum class ScoreVariant {
  kFull,            // -log P(c,t) - λ Σ log E[1/P(t_i|e_i)]
  kLikelihoodOnly,  // TG-VAE alone (λ = 0)
  kScalingOnly,     // RP-VAE alone (its per-segment negative ELBO)
};

const char* ScoreVariantName(ScoreVariant variant);

/// CausalTAD — the paper's causal implicit generative model.
///
/// Trains TG-VAE and RP-VAE jointly on normal trips (Eq. 9), precomputes
/// the per-segment scaling table, and scores ongoing trajectories with the
/// debiased criterion of Eq. (10):
///
///   score(t, c) = -log P(c,t) - λ Σ_i log E_{e_i~P(E_i|t_i)}[1/P(t_i|e_i)]
///
/// Online updates are O(1) per incoming segment: one GRU step over the
/// successor-masked softmax plus a table lookup (paper §V-D). Every no-grad
/// path — ScoreBatch, ScoreCheckpoints, the BeginTrip sessions and
/// serve::StreamingBatcher — runs the same two TG-VAE functions,
/// TgVae::EncodeSdBatch and TgVae::StepNllRows, over the cached
/// serving_tables(); the taped Score is the independent reference.
class CausalTad : public models::TrajectoryScorer {
 public:
  CausalTad(const roadnet::RoadNetwork* network,
            const CausalTadConfig& config);
  ~CausalTad() override;

  std::string Name() const override { return "CausalTAD"; }
  void Fit(const std::vector<traj::Trip>& trips,
           const models::FitOptions& options) override;
  double Score(const traj::Trip& trip, int64_t prefix_len) const override;
  std::vector<double> ScoreBatch(
      std::span<const traj::Trip> trips,
      std::span<const int64_t> prefix_lens) const override;
  std::vector<std::vector<double>> ScoreCheckpoints(
      std::span<const traj::Trip> trips,
      std::span<const std::vector<int64_t>> checkpoints) const override;
  std::unique_ptr<models::OnlineScorer> BeginTrip(
      const traj::Trip& trip) const override;
  util::Status Save(const std::string& path) const override;
  util::Status Load(const std::string& path) override;

  /// Score under an explicit variant and λ (λ ignored unless kFull). Used
  /// by the ablation (Table III) and λ-sweep (Fig. 8) benches — no
  /// retraining needed, only re-scoring.
  double ScoreVariantLambda(const traj::Trip& trip, int64_t prefix_len,
                            ScoreVariant variant, double lambda) const;

  /// Batched twin of ScoreVariantLambda: ScoreCheckpointsVariantLambda
  /// with one checkpoint per trip.
  std::vector<double> ScoreBatchVariantLambda(
      std::span<const traj::Trip> trips, std::span<const int64_t> prefix_lens,
      ScoreVariant variant, double lambda) const;

  /// Checkpointed batch scoring on the no-grad path: out[i][j] ==
  /// ScoreVariantLambda(trips[i], checkpoints[i][j], ...), computed from ONE
  /// [B, hidden] TG-VAE roll to each trip's largest checkpoint (or one
  /// RP-VAE batch per time slot for the scaling ablation) plus running
  /// prefix sums — an R-ratio observed-ratio sweep (fig6) costs one roll
  /// instead of R independent re-scores.
  std::vector<std::vector<double>> ScoreCheckpointsVariantLambda(
      std::span<const traj::Trip> trips,
      std::span<const std::vector<int64_t>> checkpoints, ScoreVariant variant,
      double lambda) const;

  /// Incremental session for an ablation variant (kLikelihoodOnly sessions
  /// are what the paper times as "TG-VAE" in Fig. 7(b)). O(1) per point:
  /// one single-row TgVae::StepNllRows and one scaling-table lookup, after
  /// a one-pair TgVae::EncodeSdBatch at the start.
  std::unique_ptr<models::OnlineScorer> BeginTripVariant(
      const traj::Trip& trip, ScoreVariant variant, double lambda) const;

  /// TG-VAE serving tables (transposed output weights and per-segment
  /// gate-input projections, see TgVae::ServingTables) — derived state
  /// rebuilt alongside the scaling table (construction, Fit, Load). Shared
  /// ownership: a Fit()/Load() under live sessions swaps in a fresh set
  /// while they keep the one they started with (scores stay
  /// self-consistent, nothing dangles).
  std::shared_ptr<const TgVae::ServingTables> serving_tables() const {
    return tg_tables_;
  }

  /// Per-segment decomposition for the paper's Fig. 4: the likelihood NLL
  /// of each transition and the (centred) scaling factor of each segment.
  struct SegmentDecomposition {
    double sd_nll = 0.0;
    double kl = 0.0;
    std::vector<double> step_nll;          // size n-1
    std::vector<double> log_scaling;       // size n (raw)
    std::vector<double> centered_scaling;  // size n (zero-mean over network)
  };
  SegmentDecomposition Decompose(const traj::Trip& trip) const;

  /// Re-derives the TG-VAE serving tables from the current parameters.
  /// Fit/Load call it automatically; call it after writing parameters
  /// directly or after nn::kernels::SetIsa, so the tables match what the
  /// active kernels would compute.
  void RebuildServingCache();

  void set_lambda(float lambda) { config_.lambda = lambda; }
  float lambda() const { return config_.lambda; }
  const ScalingTable& scaling_table() const { return scaling_table_; }
  const TgVae& tg_vae() const { return *tg_; }
  const RpVae& rp_vae() const { return *rp_; }

 private:
  struct Net;

  /// RP-VAE standalone score of a prefix (Table III "RP-VAE" row).
  double RpOnlyScore(const traj::Trip& trip, int64_t prefix_len) const;

  void RebuildScalingTable();

  const roadnet::RoadNetwork* network_;
  CausalTadConfig config_;
  std::unique_ptr<Net> net_;  // owns tg_/rp_ for checkpointing
  TgVae* tg_ = nullptr;
  RpVae* rp_ = nullptr;
  ScalingTable scaling_table_;
  // See serving_tables().
  std::shared_ptr<const TgVae::ServingTables> tg_tables_;
};

/// Non-owning adapter exposing one ablation variant of a fitted CausalTad
/// as a TrajectoryScorer (so the evaluation harness can treat "TG-VAE" and
/// "RP-VAE" as first-class methods, as in Table III).
class CausalTadVariant : public models::TrajectoryScorer {
 public:
  CausalTadVariant(const CausalTad* model, ScoreVariant variant)
      : model_(model), variant_(variant) {}

  std::string Name() const override { return ScoreVariantName(variant_); }
  void Fit(const std::vector<traj::Trip>&,
           const models::FitOptions&) override {
    // The underlying CausalTad is trained once; variants only re-score.
  }
  double Score(const traj::Trip& trip, int64_t prefix_len) const override {
    return model_->ScoreVariantLambda(trip, prefix_len, variant_,
                                      model_->lambda());
  }
  std::vector<double> ScoreBatch(
      std::span<const traj::Trip> trips,
      std::span<const int64_t> prefix_lens) const override {
    return model_->ScoreBatchVariantLambda(trips, prefix_lens, variant_,
                                           model_->lambda());
  }
  std::vector<std::vector<double>> ScoreCheckpoints(
      std::span<const traj::Trip> trips,
      std::span<const std::vector<int64_t>> checkpoints) const override {
    return model_->ScoreCheckpointsVariantLambda(trips, checkpoints, variant_,
                                                 model_->lambda());
  }
  std::unique_ptr<models::OnlineScorer> BeginTrip(
      const traj::Trip& trip) const override {
    return model_->BeginTripVariant(trip, variant_, model_->lambda());
  }
  util::Status Save(const std::string&) const override {
    return util::Status::FailedPrecondition("variants are views; save the "
                                            "underlying CausalTad");
  }
  util::Status Load(const std::string&) override {
    return util::Status::FailedPrecondition("variants are views; load the "
                                            "underlying CausalTad");
  }

 private:
  const CausalTad* model_;
  ScoreVariant variant_;
};

}  // namespace core
}  // namespace causaltad

#endif  // CAUSALTAD_CORE_CAUSAL_TAD_H_
