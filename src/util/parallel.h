#ifndef CAUSALTAD_UTIL_PARALLEL_H_
#define CAUSALTAD_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace causaltad {
namespace util {

/// Worker-thread count used by ParallelFor when the caller passes
/// threads <= 0. Defaults to std::thread::hardware_concurrency, overridable
/// once via the CAUSALTAD_THREADS environment variable or at any time via
/// SetParallelThreads. Always >= 1.
int ParallelThreads();

/// Overrides the default thread count (0 restores the hardware default).
void SetParallelThreads(int threads);

/// Splits [0, n) into up to `threads` contiguous ranges and runs
/// fn(begin, end) for each, one range inline and the rest on a persistent
/// worker pool; blocks until every range completes. threads <= 0 means
/// ParallelThreads(). Calls from inside a shard (nested parallelism), the
/// calling thread's own shard included, run inline, so callers never
/// deadlock or oversubscribe the pool. fn must be thread-safe.
void ParallelFor(int64_t n, int threads,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Whether the batched scorers order rows by prefix length before sharding
/// (length-bucketed batching). Defaults to on; CAUSALTAD_NO_LENGTH_BUCKET=1
/// starts it off, SetLengthBucketing flips it at runtime (benches A/B it).
bool LengthBucketingEnabled();
void SetLengthBucketing(bool enabled);

/// Partitions rows 0..costs.size() into shards for a [B, hidden] batch
/// roll. With bucketing enabled, rows are visited in descending-cost order
/// and cut into runs of near-equal *total* cost: rows inside one shard then
/// have near-uniform length (short rows stop paying padded gate flops /
/// compaction churn next to long ones) and shards carry near-equal work
/// (thread balance, unlike equal-count splits of a length-sorted order).
/// With bucketing disabled, shards are contiguous equal-count index ranges
/// — the pre-bucketing sharding, kept for A/B benchmarking. Returns a
/// single shard (or fewer) when the batch is too small to spread
/// (`min_rows_per_shard` rows must land on each worker).
std::vector<std::vector<int64_t>> RowShards(std::span<const int64_t> costs,
                                            int64_t min_rows_per_shard);

}  // namespace util
}  // namespace causaltad

#endif  // CAUSALTAD_UTIL_PARALLEL_H_
