#ifndef CAUSALTAD_MODELS_SCORER_H_
#define CAUSALTAD_MODELS_SCORER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "roadnet/road_network.h"
#include "traj/trajectory.h"
#include "util/random.h"
#include "util/status.h"

namespace causaltad {
namespace models {

/// Training options shared by all learned scorers.
struct FitOptions {
  int epochs = 10;
  /// Rows per tape: each optimizer step back-propagates one length-sorted
  /// [batch_size, hidden] minibatch through a single tape (batched fused
  /// GRU steps, finished-row masking). Per-trip losses are summed, not
  /// averaged, over the minibatch.
  int batch_size = 16;
  float lr = 1e-3f;
  double grad_clip = 5.0;
  uint64_t seed = 7;
  /// Print per-epoch loss, wall time, and trips/sec to stderr.
  bool verbose = false;
};

/// Epoch iteration plan for minibatched training: trip indices are
/// shuffled, stable-sorted by route length (descending) so each batch_size
/// slice is near-uniform length (minimal finished-row masking waste in the
/// [B, hidden] rolls), and the slices are visited in shuffled order so the
/// optimizer does not always see long trips first. Shared by every batched
/// Fit() so the trainers stay in lockstep.
std::vector<std::vector<int64_t>> LengthSortedBatches(
    const std::vector<traj::Trip>& trips, int64_t batch_size, util::Rng* rng);

/// Incremental scorer for one ongoing trip (the paper's online setting).
/// Segments are fed in order; Update returns the anomaly score of the
/// prefix observed so far. Implementations document their per-update cost.
/// Contract: after feeding the first k segments of the trip's route, the
/// score equals Score(trip, k) — the streaming tests enforce this for
/// every method. (The trip passed to BeginTrip carries the full planned
/// route; its endpoints are SD context models may use from update one.)
class OnlineScorer {
 public:
  virtual ~OnlineScorer() = default;

  /// Feeds the next observed road segment, returns the current score.
  virtual double Update(roadnet::SegmentId segment) = 0;
};

/// Common interface for every anomaly detector in the evaluation: the
/// CausalTAD core and all baselines. Higher scores mean more anomalous.
class TrajectoryScorer {
 public:
  virtual ~TrajectoryScorer() = default;

  virtual std::string Name() const = 0;

  /// Trains on normal trips. Deterministic given options.seed.
  virtual void Fit(const std::vector<traj::Trip>& trips,
                   const FitOptions& options) = 0;

  /// Anomaly score of the first `prefix_len` segments of the trip. The SD
  /// pair and departure slot are known upfront (set when the order is
  /// placed), so models may use them even for short prefixes.
  /// prefix_len <= 0 or beyond the route scores the full trajectory.
  virtual double Score(const traj::Trip& trip, int64_t prefix_len) const = 0;

  /// Score of the complete trajectory.
  double ScoreFull(const traj::Trip& trip) const {
    return Score(trip, trip.route.size());
  }

  /// Batched scoring: element i is Score(trips[i], prefix_lens[i]) (the
  /// same <=0 / beyond-route clamping applies). `prefix_lens` may be empty,
  /// meaning full trajectories. The base implementation loops over Score;
  /// recurrent models override it with a no-grad fast path that rolls all
  /// trips through one [B, hidden] state, which is how the evaluation
  /// harness and the serving path amortize per-step costs.
  virtual std::vector<double> ScoreBatch(
      std::span<const traj::Trip> trips,
      std::span<const int64_t> prefix_lens) const;

  /// Scores trip i at each prefix length of checkpoints[i] in one pass:
  /// out[i][j] == Score(trips[i], checkpoints[i][j]) (same <=0 /
  /// beyond-route clamping). The base implementation flattens every
  /// (trip, checkpoint) pair into one ScoreBatch call, so models with a
  /// batched fast path amortize it automatically; CausalTad overrides this
  /// with a single incremental roll per trip (every checkpoint read off one
  /// set of running prefix sums), which is what collapses fig6's
  /// observed-ratio sweep from R independent re-scores into one roll.
  virtual std::vector<std::vector<double>> ScoreCheckpoints(
      std::span<const traj::Trip> trips,
      std::span<const std::vector<int64_t>> checkpoints) const;

  /// Starts incremental scoring of one trip (context only; segments are fed
  /// via OnlineScorer::Update). The base implementation re-scores the prefix
  /// on every update — O(prefix) per point; models with recurrent state
  /// override it with sessions that carry the state forward (O(1) per point
  /// for the road-constrained decoders). The base path stays the reference
  /// the sessions are tested against; reach it on any scorer with the
  /// qualified call scorer.models::TrajectoryScorer::BeginTrip(trip).
  virtual std::unique_ptr<OnlineScorer> BeginTrip(const traj::Trip& trip) const;

  /// Persists / restores the fitted model.
  virtual util::Status Save(const std::string& path) const = 0;
  virtual util::Status Load(const std::string& path) = 0;
};

}  // namespace models
}  // namespace causaltad

#endif  // CAUSALTAD_MODELS_SCORER_H_
