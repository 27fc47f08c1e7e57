#ifndef CAUSALTAD_MODELS_RNN_VAE_H_
#define CAUSALTAD_MODELS_RNN_VAE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "models/scorer.h"
#include "nn/checkpoint.h"
#include "nn/modules.h"
#include "nn/optim.h"

namespace causaltad {
namespace models {

/// One configurable sequence model covering the paper's learned baselines:
///
///   SAE       — variational=false (plain seq2seq reconstruction)
///   VSAE      — defaults
///   β-VAE     — beta > 1
///   FactorVAE — factor_tc=true (total-correlation discriminator)
///   GM-VSAE   — mixture_k > 0 (Gaussian-mixture latent prior)
///   DeepTEA   — time_conditioned=true (departure-slot conditioning)
///
/// All variants share: a GRU encoder over the observed prefix, a latent (or
/// deterministic) bottleneck, and an autoregressive GRU decoder with a
/// full-vocabulary softmax. The anomaly score is the negative ELBO
/// (reconstruction NLL + beta·KL), i.e. -log P(T|C) estimated from the
/// observed trajectory, which is exactly the biased criterion the paper
/// argues against.
struct RnnVaeConfig {
  int64_t vocab = 0;  // number of road segments; required
  int num_time_slots = 8;
  int64_t emb_dim = 48;
  int64_t hidden_dim = 64;
  int64_t latent_dim = 32;
  int64_t slot_emb_dim = 8;
  bool variational = true;
  float beta = 1.0f;
  int mixture_k = 0;
  bool time_conditioned = false;
  bool factor_tc = false;
  float tc_gamma = 2.0f;
};

class RnnVae : public TrajectoryScorer {
 public:
  RnnVae(std::string name, const RnnVaeConfig& config);
  ~RnnVae() override;

  std::string Name() const override { return name_; }
  void Fit(const std::vector<traj::Trip>& trips,
           const FitOptions& options) override;
  double Score(const traj::Trip& trip, int64_t prefix_len) const override;
  /// No-grad fast path: encodes and decodes all trips as one [B, hidden]
  /// GRU batch (fused steps, packed matmuls, no tape). Matches Score
  /// per element for every model variant.
  std::vector<double> ScoreBatch(
      std::span<const traj::Trip> trips,
      std::span<const int64_t> prefix_lens) const override;
  /// Incremental no-grad session. The encoder state is carried forward (one
  /// fused GRU step per point); the decoder is re-rolled over the observed
  /// prefix with cached input projections, because the ELBO's decode is
  /// conditioned on the posterior of the *whole* prefix — exact parity with
  /// Score(trip, k) therefore costs O(prefix) fused decode steps per
  /// update, against the rescoring path's O(prefix) *taped* encode+decode.
  std::unique_ptr<OnlineScorer> BeginTrip(
      const traj::Trip& trip) const override;
  util::Status Save(const std::string& path) const override;
  util::Status Load(const std::string& path) override;

  const RnnVaeConfig& config() const { return config_; }

  /// Builds the (negative) ELBO for a prefix on a per-trip tape. When `rng`
  /// is non-null the latent is sampled (training); otherwise the posterior
  /// mean is used. Public so the gradient-parity tests can compare it
  /// against LossBatch.
  nn::Var Loss(const traj::Trip& trip, int64_t prefix_len,
               util::Rng* rng) const;

  /// Minibatched Loss: encodes and decodes all trips (full routes) as
  /// masked [B, hidden] rolls on ONE tape — batched fused GRU steps with
  /// finished-row masking, one batched softmax-CE over every live decode
  /// step, and batched KL reductions. Returns the sum of the per-trip
  /// losses; gradients match per-trip Loss accumulation to float rounding.
  /// When `mu_out` is non-null it receives the posterior-mean batch
  /// [B, latent] (the FactorVAE total-correlation term reuses it).
  nn::Var LossBatch(std::span<const traj::Trip* const> trips, util::Rng* rng,
                    nn::Var* mu_out = nullptr) const;

  /// Trainable parameters of the generative model (excludes the FactorVAE
  /// TC discriminator). Exposed for the gradient-parity tests.
  std::vector<nn::Var> GenerativeParameters() const;

 private:
  struct Net;
  struct OnlineState;
  class OnlineSession;

  /// Per-session carried state for the incremental scorer.
  std::unique_ptr<OnlineState> BeginOnline(const traj::Trip& trip) const;
  double OnlineUpdate(OnlineState* state, roadnet::SegmentId segment) const;

  /// KL of one posterior row against the (mixture) prior with z = mu — the
  /// shared inference-path reduction of ScoreBatch and the online session.
  double PosteriorKlRow(const float* mu_row, const float* lv_row) const;

  nn::Var EncodePrefix(const traj::Trip& trip, int64_t prefix_len) const;
  nn::Var DecodeNll(const traj::Trip& trip, int64_t prefix_len,
                    const nn::Var& h0) const;
  nn::Var MixturePriorLogPdf(const nn::Var& z) const;
  nn::Var GaussianLogPdf(const nn::Var& z, const nn::Var& mu,
                         const nn::Var& logvar) const;

  /// Buffers every row of `mu` and runs one adversarial real-vs-permuted
  /// discriminator step over the whole minibatch.
  void TrainDiscriminatorBatch(const nn::Tensor& mu, nn::Adam* disc_opt,
                               util::Rng* rng);

  /// Single-threaded ScoreBatch body for one shard of rows: reads
  /// trips[rows[a]] / prefixes[rows[a]] (already clamped) and writes
  /// out[rows[a]]. ScoreBatch builds the shards (length-bucketed by prefix
  /// length when enabled) and runs one chunk per worker.
  void ScoreBatchChunk(std::span<const traj::Trip> trips,
                       std::span<const int64_t> prefixes,
                       std::span<const int64_t> rows, double* out) const;

  std::string name_;
  RnnVaeConfig config_;
  std::unique_ptr<Net> net_;
  // FactorVAE: replay buffer of recent latents for the permutation trick.
  std::deque<std::vector<float>> z_buffer_;
};

// Factories configuring each named baseline. `base` carries shared dims
// (vocab is required); flags are overridden per model.
std::unique_ptr<TrajectoryScorer> MakeSae(RnnVaeConfig base);
std::unique_ptr<TrajectoryScorer> MakeVsae(RnnVaeConfig base);
std::unique_ptr<TrajectoryScorer> MakeBetaVae(RnnVaeConfig base);
std::unique_ptr<TrajectoryScorer> MakeFactorVae(RnnVaeConfig base);
std::unique_ptr<TrajectoryScorer> MakeGmVsae(RnnVaeConfig base);
std::unique_ptr<TrajectoryScorer> MakeDeepTea(RnnVaeConfig base);

}  // namespace models
}  // namespace causaltad

#endif  // CAUSALTAD_MODELS_RNN_VAE_H_
