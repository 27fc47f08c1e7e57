// Shared helpers of the perfbench program: order statistics, process
// counters, the host fingerprint and the result record printed as JSON.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
/// Takes a copy: callers keep their sample order.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Process CPU time (user + system, every thread) in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Heap bytes currently allocated (malloc arenas + mmapped blocks), KiB.
double HeapInUseKb();

/// 1e-6 relative parity: |got - want| <= 1e-6 * max(1, |want|).
bool WithinParity(double got, double want);

/// Host and build identity printed beside every result.
std::map<std::string, std::string> Fingerprint(uint64_t seed);

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the correctness tally plus named metrics.
/// `attempted` counts points (online) or scored trips/prefixes (offline)
/// whose output was checked; `failed` those that got no score, a reject,
/// a gap or duplicate, or a score outside the parity bound.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(int64_t count, const std::string& why);
  /// Folds another phase's tally and metrics into this one.
  void Merge(const Result& other);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json() const;
};

/// Formats a std::map of strings as one JSON object.
std::string JsonObject(const std::map<std::string, std::string>& fields);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
