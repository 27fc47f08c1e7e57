#include "models/scorer.h"

#include <algorithm>

namespace causaltad {
namespace models {

std::vector<std::vector<int64_t>> LengthSortedBatches(
    const std::vector<traj::Trip>& trips, int64_t batch_size,
    util::Rng* rng) {
  const int64_t n = static_cast<int64_t>(trips.size());
  const int64_t bs = std::max<int64_t>(1, batch_size);
  std::vector<int64_t> order = rng->Permutation(n);
  std::stable_sort(order.begin(), order.end(),
                   [&trips](int64_t a, int64_t b) {
                     return trips[a].route.size() > trips[b].route.size();
                   });
  const int64_t num_batches = (n + bs - 1) / bs;
  std::vector<std::vector<int64_t>> batches;
  batches.reserve(num_batches);
  for (const int64_t b : rng->Permutation(num_batches)) {
    const int64_t begin = b * bs;
    const int64_t end = std::min(n, begin + bs);
    batches.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return batches;
}

namespace {

/// Fallback online scorer: replays the growing prefix through Score() —
/// O(prefix) work per update, the reference path the incremental sessions
/// are tested against. The trip (with its full planned route, whose
/// endpoints are the SD context models may read even for short prefixes)
/// is copied exactly once at BeginTrip; each update just bumps the scored
/// prefix length instead of rebuilding a Trip. A fed segment that deviates
/// from the planned route overwrites the route from that point on, so live
/// detours are scored as observed.
class RescoringOnlineScorer : public OnlineScorer {
 public:
  RescoringOnlineScorer(const TrajectoryScorer* scorer, traj::Trip trip)
      : scorer_(scorer), trip_(std::move(trip)) {}

  double Update(roadnet::SegmentId segment) override {
    const int64_t k = prefix_len_++;
    if (k < trip_.route.size()) {
      trip_.route.segments[k] = segment;
    } else {
      trip_.route.segments.push_back(segment);
    }
    return scorer_->Score(trip_, prefix_len_);
  }

 private:
  const TrajectoryScorer* scorer_;
  traj::Trip trip_;
  int64_t prefix_len_ = 0;
};

}  // namespace

std::unique_ptr<OnlineScorer> TrajectoryScorer::BeginTrip(
    const traj::Trip& trip) const {
  return std::make_unique<RescoringOnlineScorer>(this, trip);
}

std::vector<std::vector<double>> TrajectoryScorer::ScoreCheckpoints(
    std::span<const traj::Trip> trips,
    std::span<const std::vector<int64_t>> checkpoints) const {
  std::vector<std::vector<double>> out(trips.size());
  // Uniform checkpoint counts (a ratio sweep — the common case): one
  // ScoreBatch per checkpoint column over the original trip array, no Trip
  // copies at all.
  const size_t cols = checkpoints.empty() ? 0 : checkpoints[0].size();
  bool uniform = checkpoints.size() == trips.size();
  for (const auto& ks : checkpoints) uniform &= ks.size() == cols;
  if (uniform) {
    for (size_t i = 0; i < trips.size(); ++i) out[i].resize(cols);
    std::vector<int64_t> prefixes(trips.size());
    for (size_t j = 0; j < cols; ++j) {
      for (size_t i = 0; i < trips.size(); ++i) {
        prefixes[i] = checkpoints[i][j];
      }
      const std::vector<double> column = ScoreBatch(trips, prefixes);
      for (size_t i = 0; i < trips.size(); ++i) out[i][j] = column[i];
    }
    return out;
  }
  // Ragged checkpoint lists: flatten every (trip, checkpoint) pair into one
  // ScoreBatch call (costs one Trip copy per pair).
  std::vector<traj::Trip> flat_trips;
  std::vector<int64_t> flat_prefixes;
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto& ks = i < checkpoints.size() ? checkpoints[i]
                                            : std::vector<int64_t>{};
    for (const int64_t k : ks) {
      flat_trips.push_back(trips[i]);
      flat_prefixes.push_back(k);
    }
  }
  const std::vector<double> flat = ScoreBatch(flat_trips, flat_prefixes);
  size_t pos = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    const size_t count = i < checkpoints.size() ? checkpoints[i].size() : 0;
    out[i].assign(flat.begin() + pos, flat.begin() + pos + count);
    pos += count;
  }
  return out;
}

std::vector<double> TrajectoryScorer::ScoreBatch(
    std::span<const traj::Trip> trips,
    std::span<const int64_t> prefix_lens) const {
  std::vector<double> scores;
  scores.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    const int64_t prefix =
        i < prefix_lens.size() ? prefix_lens[i] : trips[i].route.size();
    scores.push_back(Score(trips[i], prefix));
  }
  return scores;
}

}  // namespace models
}  // namespace causaltad
