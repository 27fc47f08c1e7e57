#include "util/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace causaltad {
namespace util {
namespace {

constexpr double kFloorMs = 1e-3;  // 1µs

int BucketOf(double ms) {
  if (!(ms > kFloorMs)) return 0;
  const int b = 1 + static_cast<int>(4.0 * std::log2(ms / kFloorMs));
  return std::min(b, LatencyHistogram::kNumBuckets - 1);
}

double BucketMidpoint(int bucket) {
  if (bucket == 0) return kFloorMs;
  // Bucket b covers [floor·2^((b-1)/4), floor·2^(b/4)); report the
  // geometric midpoint.
  return kFloorMs * std::exp2((bucket - 0.5) / 4.0);
}

// Shared rank-walk over an explicit bucket array: the k-th sample in rank
// order, 1-based, p=0 mapping to the first — identical semantics to
// Percentile() so windowed and merged views agree with the lifetime view.
double PercentileOfCounts(const std::array<int64_t, LatencyHistogram::kNumBuckets>& counts,
                          double p) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(clamped / 100.0 *
                                                          total)));
  int64_t seen = 0;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) return BucketMidpoint(b);
  }
  return BucketMidpoint(LatencyHistogram::kNumBuckets - 1);
}

}  // namespace

void LatencyHistogram::Add(double ms) {
  buckets_[BucketOf(ms)].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(std::llround(std::max(ms, 0.0) * 1000.0),
                    std::memory_order_relaxed);
}

double LatencyHistogram::MeanMs() const {
  const int64_t total = TotalCount();
  if (total == 0) return 0.0;
  return sum_us_.load(std::memory_order_relaxed) / 1000.0 / total;
}

int64_t LatencyHistogram::TotalCount() const {
  int64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::Percentile(double p) const {
  std::array<int64_t, kNumBuckets> snapshot;
  int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    snapshot[b] = buckets_[b].load(std::memory_order_relaxed);
    total += snapshot[b];
  }
  if (total == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // The k-th sample in rank order, 1-based; p=0 maps to the first.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(clamped / 100.0 *
                                                          total)));
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += snapshot[b];
    if (seen >= rank) return BucketMidpoint(b);
  }
  return BucketMidpoint(kNumBuckets - 1);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.sum_us = sum_us_.load(std::memory_order_relaxed);
  return snap;
}

int64_t LatencyHistogram::CountSince(const Snapshot& base) const {
  int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    total += std::max<int64_t>(
        0, buckets_[b].load(std::memory_order_relaxed) - base.counts[b]);
  }
  return total;
}

double LatencyHistogram::PercentileSince(const Snapshot& base, double p) const {
  std::array<int64_t, kNumBuckets> delta;
  for (int b = 0; b < kNumBuckets; ++b) {
    delta[b] = std::max<int64_t>(
        0, buckets_[b].load(std::memory_order_relaxed) - base.counts[b]);
  }
  return PercentileOfCounts(delta, p);
}

double LatencyHistogram::MergedPercentile(const LatencyHistogram* const* hists,
                                          int n, double p) {
  std::array<int64_t, kNumBuckets> merged{};
  for (int i = 0; i < n; ++i) {
    for (int b = 0; b < kNumBuckets; ++b) {
      merged[b] += hists[i]->buckets_[b].load(std::memory_order_relaxed);
    }
  }
  return PercentileOfCounts(merged, p);
}

double LatencyHistogram::MergedPercentileSince(
    const LatencyHistogram* const* hists, const Snapshot* bases, int n,
    double p) {
  std::array<int64_t, kNumBuckets> merged{};
  for (int i = 0; i < n; ++i) {
    for (int b = 0; b < kNumBuckets; ++b) {
      merged[b] += std::max<int64_t>(
          0, hists[i]->buckets_[b].load(std::memory_order_relaxed) -
                 bases[i].counts[b]);
    }
  }
  return PercentileOfCounts(merged, p);
}

double LatencyHistogram::MergedMeanMsSince(
    const LatencyHistogram* const* hists, const Snapshot* bases, int n) {
  int64_t count = 0;
  int64_t sum_us = 0;
  for (int i = 0; i < n; ++i) {
    count += hists[i]->CountSince(bases[i]);
    sum_us += std::max<int64_t>(
        0, hists[i]->sum_us_.load(std::memory_order_relaxed) -
               bases[i].sum_us);
  }
  return count == 0 ? 0.0 : sum_us / 1000.0 / static_cast<double>(count);
}

}  // namespace util
}  // namespace causaltad
