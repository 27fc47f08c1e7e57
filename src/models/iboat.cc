#include "models/iboat.h"

#include <algorithm>
#include <limits>

#include "geo/geo.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace causaltad {
namespace models {
namespace {

constexpr uint32_t kMagic = 0x1B0A7000;
constexpr uint32_t kVersion = 1;

// Does `route` contain `window` as a contiguous sub-sequence?
bool ContainsWindow(const std::vector<roadnet::SegmentId>& route,
                    const std::vector<roadnet::SegmentId>& window) {
  if (window.empty() || window.size() > route.size()) return window.empty();
  return std::search(route.begin(), route.end(), window.begin(),
                     window.end()) != route.end();
}

/// iBOAT's adaptive-window scan (used by both batch and online scoring).
class AdaptiveWindowScorer : public OnlineScorer {
 public:
  AdaptiveWindowScorer(
      const std::vector<std::vector<roadnet::SegmentId>>* references,
      double support_threshold)
      : references_(references), threshold_(support_threshold) {}

  double Update(roadnet::SegmentId segment) override {
    ++num_points_;
    if (references_ == nullptr || references_->empty()) {
      // No evidence at all: everything looks anomalous.
      anomalous_mass_ += 1.0;
      return CurrentScore();
    }
    window_.push_back(segment);
    double support = Support();
    if (support < threshold_) {
      // Isolate: shrink the window to the newest point and re-test, as in
      // the iBOAT adaptive working window.
      window_.assign(1, segment);
      support = Support();
      anomalous_mass_ += 1.0 - support;
    }
    return CurrentScore();
  }

  double CurrentScore() const {
    return num_points_ == 0 ? 0.0 : anomalous_mass_ / num_points_;
  }

 private:
  double Support() const {
    int hits = 0;
    for (const auto& ref : *references_) {
      if (ContainsWindow(ref, window_)) ++hits;
    }
    return static_cast<double>(hits) / references_->size();
  }

  const std::vector<std::vector<roadnet::SegmentId>>* references_;
  double threshold_;
  std::vector<roadnet::SegmentId> window_;
  int64_t num_points_ = 0;
  double anomalous_mass_ = 0.0;
};

}  // namespace

Iboat::Iboat(const roadnet::RoadNetwork* network, const IboatConfig& config)
    : network_(network), config_(config) {
  CAUSALTAD_CHECK(network != nullptr);
}

void Iboat::Fit(const std::vector<traj::Trip>& trips,
                const FitOptions& options) {
  (void)options;  // deterministic; nothing stochastic to seed
  references_.clear();
  for (const traj::Trip& trip : trips) {
    references_[{trip.source_node, trip.dest_node}].push_back(
        trip.route.segments);
  }
}

const std::vector<std::vector<roadnet::SegmentId>>* Iboat::ReferencesFor(
    const PairKey& key) const {
  auto it = references_.find(key);
  if (it != references_.end() &&
      static_cast<int>(it->second.size()) >= config_.min_references) {
    return &it->second;
  }
  // Nearest indexed pair by endpoint great-circle distance (the paper's OOD
  // protocol for metric methods).
  const std::vector<std::vector<roadnet::SegmentId>>* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto& [pair, routes] : references_) {
    const double d =
        geo::HaversineMeters(network_->node(pair.first).pos,
                             network_->node(key.first).pos) +
        geo::HaversineMeters(network_->node(pair.second).pos,
                             network_->node(key.second).pos);
    if (d < best_dist) {
      best_dist = d;
      best = &routes;
    }
  }
  return best;
}

double Iboat::Score(const traj::Trip& trip, int64_t prefix_len) const {
  const int64_t n = trip.route.size();
  if (prefix_len <= 0 || prefix_len > n) prefix_len = n;
  AdaptiveWindowScorer scorer(
      ReferencesFor({trip.source_node, trip.dest_node}),
      config_.support_threshold);
  double score = 0.0;
  for (int64_t i = 0; i < prefix_len; ++i) {
    score = scorer.Update(trip.route.segments[i]);
  }
  return score;
}

std::unique_ptr<OnlineScorer> Iboat::BeginTrip(const traj::Trip& trip) const {
  // The adaptive working window IS the carried state — Score() itself
  // replays this session, so the incremental path is exact by construction.
  return std::make_unique<AdaptiveWindowScorer>(
      ReferencesFor({trip.source_node, trip.dest_node}),
      config_.support_threshold);
}

util::Status Iboat::Save(const std::string& path) const {
  util::BinaryWriter writer(path, kMagic, kVersion);
  if (!writer.ok()) return util::Status::IoError("cannot open " + path);
  writer.WriteU64(references_.size());
  for (const auto& [pair, routes] : references_) {
    writer.WriteI64(pair.first);
    writer.WriteI64(pair.second);
    writer.WriteU64(routes.size());
    for (const auto& route : routes) {
      writer.WriteInts(std::vector<int32_t>(route.begin(), route.end()));
    }
  }
  return writer.Close();
}

util::Status Iboat::Load(const std::string& path) {
  util::BinaryReader reader(path, kMagic, kVersion);
  if (!reader.ok()) return reader.status();
  std::map<PairKey, std::vector<std::vector<roadnet::SegmentId>>> loaded;
  const uint64_t num_pairs = reader.ReadU64();
  for (uint64_t i = 0; i < num_pairs && reader.ok(); ++i) {
    PairKey key;
    key.first = static_cast<roadnet::NodeId>(reader.ReadI64());
    key.second = static_cast<roadnet::NodeId>(reader.ReadI64());
    const uint64_t num_routes = reader.ReadU64();
    auto& routes = loaded[key];
    for (uint64_t r = 0; r < num_routes && reader.ok(); ++r) {
      const std::vector<int32_t> ids = reader.ReadInts();
      routes.emplace_back(ids.begin(), ids.end());
    }
  }
  if (!reader.ok()) return reader.status();
  references_ = std::move(loaded);
  return util::Status::Ok();
}

}  // namespace models
}  // namespace causaltad
