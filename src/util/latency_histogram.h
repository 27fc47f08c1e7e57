#ifndef CAUSALTAD_UTIL_LATENCY_HISTOGRAM_H_
#define CAUSALTAD_UTIL_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace causaltad {
namespace util {

/// Fixed-footprint latency histogram with geometric (quarter-octave)
/// buckets from 1µs to ~30min, built for serving hot paths: Add() is one
/// relaxed atomic increment, safe from any number of threads with no lock
/// (the serving pump threads share one instance). Percentile() walks a
/// racy snapshot of the buckets — fine for ops counters, where the answer
/// is a ~±19% bucket-resolution estimate anyway.
class LatencyHistogram {
 public:
  /// 4 buckets per factor of 2, spanning 2^30 µs above the 1µs floor.
  static constexpr int kNumBuckets = 4 * 30 + 2;  // under/overflow ends

  /// Records one latency in milliseconds (negative values clamp to 0).
  void Add(double ms);

  /// Total samples recorded.
  int64_t TotalCount() const;

  /// Exact mean of the recorded latencies in ms (µs resolution per sample,
  /// unlike the bucketed percentiles). 0 when empty. The wire server reports
  /// it next to the percentiles for per-frame dispatch accounting.
  double MeanMs() const;

  /// Approximate value (ms) at percentile p in [0, 100]: the geometric
  /// midpoint of the bucket holding the p-th sample. 0 when empty.
  double Percentile(double p) const;

  void Reset();

  /// A point-in-time copy of the bucket counts. Used as the baseline for
  /// windowed percentiles: take one at the start of a control interval and
  /// PercentileSince() sees only samples added after it. Copyable value
  /// type (unlike the histogram itself, whose atomics pin it in place).
  struct Snapshot {
    std::array<int64_t, kNumBuckets> counts{};
    int64_t sum_us = 0;
  };

  Snapshot TakeSnapshot() const;

  /// Samples recorded after `base` was taken.
  int64_t CountSince(const Snapshot& base) const;

  /// Percentile over only the samples recorded after `base` was taken.
  /// 0 when no new samples. Same bucket-midpoint resolution as
  /// Percentile(); counts that raced below the baseline clamp to 0.
  double PercentileSince(const Snapshot& base, double p) const;

  /// Percentile over the union of `n` histograms' samples, as if they were
  /// one population — the service-level view over per-shard histograms.
  /// 0 when all are empty.
  static double MergedPercentile(const LatencyHistogram* const* hists, int n,
                                 double p);

  /// MergedPercentile restricted to samples each histogram recorded after
  /// its paired baseline in `bases` (bases[i] belongs to hists[i]) — the
  /// per-instance window when the histograms are registry-owned and outlive
  /// any one owner. Counts that raced below a baseline clamp to 0.
  static double MergedPercentileSince(const LatencyHistogram* const* hists,
                                      const Snapshot* bases, int n, double p);

  /// Exact mean (ms) over the same windowed union as MergedPercentileSince.
  /// 0 when no histogram recorded a sample after its baseline.
  static double MergedMeanMsSince(const LatencyHistogram* const* hists,
                                  const Snapshot* bases, int n);

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> sum_us_{0};
};

}  // namespace util
}  // namespace causaltad

#endif  // CAUSALTAD_UTIL_LATENCY_HISTOGRAM_H_
