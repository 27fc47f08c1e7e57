// perfbench: the repository's end-to-end and per-layer benchmark. It drives
// only the public library API (eval corpus, core::CausalTad,
// serve::StreamingService, net::{Client,Server,Router}, nn::kernels) and
// measures each layer from outside: by timing calls into it and by reading
// the stats() snapshots every tier exports. See perfbench/README.md.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "models/scorer.h"
#include "report.h"
#include "traj/trajectory.h"

namespace perfbench {

/// The fitted model and the scored corpus every phase shares. Built from
/// fixed seeds (xian, default scale): the same work on every run, and
/// nothing read from disk.
struct Setup {
  causaltad::eval::ExperimentData data;
  std::unique_ptr<causaltad::models::TrajectoryScorer> scorer;
  const causaltad::core::CausalTad* model = nullptr;
  /// Test corpus: ID normals, OOD normals, then the ID/OOD detour and
  /// switch anomalies. `anomaly[i]` / `ood[i]` label test[i].
  std::vector<causaltad::traj::Trip> test;
  std::vector<uint8_t> anomaly;
  std::vector<uint8_t> ood;
  /// Parity ground truth: reference[i][k - 1] == model->Score(test[i], k).
  std::vector<std::vector<double>> reference;
  int64_t test_points = 0;
  double corpus_s = 0.0;  // BuildExperiment wall time
  double fit_s = 0.0;     // Fit wall time
};

/// Builds the corpus and fits CausalTAD with FitOptionsFor(kDefault).
/// The reference table is left empty (see FillReference).
std::unique_ptr<Setup> BuildSetup();

/// Computes Setup::reference with the per-trip Score path (parallel).
void FillReference(Setup& setup);

/// score_corpus phase: ScoreBatch, ScoreCheckpoints at the 10 Fig. 6
/// ratios, and BeginTrip/Update sessions over the whole test corpus, in an
/// order the seed permutes. Timed passes accumulate over TimedRound calls,
/// so a run can spread them across its length and report medians.
class ScoreBench {
 public:
  ScoreBench(const Setup& setup, uint64_t seed);

  /// Parity of all three paths against Setup::reference, plus the
  /// detection AUCs (roc_auc.id must beat 0.55).
  Result Check() const;
  /// `passes` timed passes of each batched path, each ~pass_seconds long.
  void TimedRound(double pass_seconds, int passes);
  /// score_trips_per_s, sweep_trips_per_s: medians so far.
  Result Throughputs() const;
  /// core.* per-call timings: the batched paths per trip (from the rounds
  /// so far) and every BeginTrip/Update timed alone for `seconds`.
  Result PerCall(double seconds) const;

 private:
  const Setup& setup_;
  std::vector<size_t> order_;  // trips_[i] == setup_.test[order_[i]]
  std::vector<causaltad::traj::Trip> trips_;
  std::vector<int64_t> full_lens_;
  std::vector<std::vector<int64_t>> checkpoints_;
  std::vector<double> batch_s_, sweep_s_;  // seconds per pass
};

/// nn.kernels per-call timings through kernels::Active() at the default
/// model shapes.
Result RunKernelProbe(const Setup& setup, double seconds);

struct LegOutcome;

/// What one ladder rung measured: raw samples, so legs that ran the same
/// rung can be pooled.
struct RungData {
  std::vector<double> lat_ms;        // due -> observed, per scored point
  std::vector<double> block_p99_ms;  // p99 of each 1,000 due-ordered points
  std::vector<double> late_ms;       // push time - due time
  std::vector<double> backlog_ends;  // per leg: due, unscored at rung end
  int64_t failed = 0;                // points of the rung that never scored
  double measured_s = 0.0;           // rung seconds after the ramp

  void Pool(const RungData& other) {
    lat_ms.insert(lat_ms.end(), other.lat_ms.begin(), other.lat_ms.end());
    block_p99_ms.insert(block_p99_ms.end(), other.block_p99_ms.begin(),
                        other.block_p99_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    backlog_ends.insert(backlog_ends.end(), other.backlog_ends.begin(),
                        other.backlog_ends.end());
    failed += other.failed;
    measured_s += other.measured_s;
  }
  double p50_ms() const { return Quantile(lat_ms, 0.5); }
  double backlog_end() const { return Median(backlog_ends); }
  /// p99 is read per block of 1,000 consecutive due points (ten
  /// samples beyond it) and the median block is reported, so a host stall
  /// moves the blocks it falls in, not the whole rung.
  double p99_ms() const {
    return block_p99_ms.empty() ? Quantile(lat_ms, 0.99)
                                : Median(block_p99_ms);
  }
  double delivered_pps() const {
    return static_cast<double>(lat_ms.size()) / std::max(measured_s, 1e-9);
  }
};

/// The open-loop online workloads over the wire: direct (client -> server
/// -> 1-shard pumped service) or fleet (client -> router -> 2 such
/// backends). Every leg runs on a fresh stack with arrivals drawn from the
/// run seed; legs of the same ladder rung are pooled.
class OnlineBench {
 public:
  OnlineBench(const Setup& setup, bool fleet, uint64_t seed);

  /// One untraced leg over the whole ladder (a run spreads several).
  void LadderLeg(double seconds);
  /// Every online end-to-end metric, over all legs so far.
  Result Finish();
  /// The traced run: the nominal rate untraced, then traced; reports the
  /// serve/net/span/generator per-layer metrics and the tracing overhead.
  Result Traced(double seconds);

 private:
  LegOutcome Leg(const std::vector<int>& rungs,
                 const std::vector<double>& seconds, bool traced);

  const Setup& setup_;
  bool fleet_;
  uint64_t seed_;
  uint64_t legs_ = 0;
  Result checked_;  // correctness tally of every leg
  std::map<int, RungData> pooled_;
  double cpu_s_ = 0.0;
  int64_t scores_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
