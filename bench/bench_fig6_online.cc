// Reproduces Fig. 6: online detection quality as a function of the observed
// ratio (fraction of the trajectory seen so far), on (a) the ID & Switch
// datasets of Xi'an and (b) the OOD & Switch datasets of Chengdu.
//
// Paper reference (Fig. 6): all curves rise with the observed ratio, flat at
// the start and steepest mid-trip (anomalies are mid-trajectory); CausalTAD
// dominates at every ratio and reaches decent quality by ratio 0.6, while
// baselines need 0.8-1.0.
//
// The 10-ratio sweep goes through ScoreSetAtRatios / ScoreCheckpoints: one
// incremental roll per trip (CausalTAD reads every ratio off one set of
// running prefix sums) instead of 10 independent re-scores.
//
// A second section measures the online serving throughput (points/sec) of
// three paths and writes it to BENCH_fig6.json ("fig6_throughput"):
//   * rescoring   — the reference RescoringOnlineScorer, which replays
//                   Score() on every update (O(prefix) taped work per
//                   point; the base TrajectoryScorer::BeginTrip),
//   * incremental — the models' own BeginTrip sessions (carried GRU state,
//                   fused no-grad kernels; O(1) per point for the
//                   road-constrained decoders),
//   * batcher     — serve::StreamingBatcher, all trips advancing through
//                   one shared [B, hidden] state matrix (CausalTAD +
//                   TG-VAE).
// Every row records the max-abs diff of the incremental score sequence
// against Score(trip, k) for every k — the streaming parity bound.
//
// A third section ("fig6_service") measures serve::StreamingService — the
// production front-end over the batcher — in a 1-vs-N-shard, pump-on/off
// grid: points/sec, step occupancy, queue-wait p50/p95/p99, and the
// backpressure counters, with the same per-point parity bound.
//
// A fourth section ("fig6_wire") measures the full network path — a
// net::Client feeding a net::Server over a loopback socketpair, frames
// decoded and translated into the same pumped StreamingService — against
// the in-process service with identical options, recording client-observed
// points/sec, the wire-side reject/retransmit counters, the server's
// per-frame dispatch p99, and the same per-point parity bound (wire scores
// must match Score(trip, k) like every other serving layer).
//
// A fifth section ("fig6_fault") reruns the wire path under the
// deterministic net::FaultInjector at 0% / 1% / 5% per-operation fault
// rates (drop + duplicate + truncate split evenly, kills at a tenth of the
// rate, short writes and delays at the full rate) with a reconnecting
// client: throughput under faults, reconnect count, go-back-N + resume
// retransmissions, deduped redeliveries, and the last outage's recovery
// time — with the SAME per-point parity bound as the clean runs, because
// session continuity must not change a single score.
//
// A sixth section ("fig6_cluster") measures the multi-backend router tier:
// a downstream client feeding net::Router in front of 1 vs 3 backend
// Servers (steady-state routed throughput), then two robustness scenarios
// against the 3-backend fleet — a backend killed mid-stream (failover +
// journaled prefix replay; kill-to-recovered time) and a RollSwap under
// load (stage / drain / commit / undrain across the fleet) — all under the
// same per-point parity bound: routed, failed-over, and swapped-under-load
// scores must match Score(trip, k) exactly.
//
// Environment knobs:
//   CAUSALTAD_BENCH_SCALE=smoke|default|full   experiment scale
//   CAUSALTAD_FIG6_METHODS=a,b,c               quality-panel method filter
//   CAUSALTAD_FIG6_SKIP_PANELS=1               skip the quality panels
//   CAUSALTAD_FIG6_SERVICE_SHARDS=N            sharded service configs (4)
//   CAUSALTAD_FIG6_WIRE_ONLY=1                 only the fig6_wire section
//   CAUSALTAD_FIG6_CLUSTER_ONLY=1              only the fig6_cluster section
//   CAUSALTAD_FIG6_JSON=<path>                 output path (BENCH_fig6.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "models/scorer.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/streaming.h"
#include "util/stopwatch.h"

namespace {

using causaltad::core::CausalTad;
using causaltad::core::CausalTadVariant;
using causaltad::core::ScoreVariant;
using causaltad::eval::EvaluateScores;
using causaltad::eval::ExperimentData;
using causaltad::eval::ScoreSetAtRatios;
using causaltad::eval::Subsample;
using causaltad::eval::TablePrinter;
using causaltad::models::TrajectoryScorer;
using causaltad::traj::Trip;

const std::vector<double> kRatios = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9, 1.0};

std::vector<std::string> PanelMethods() {
  std::vector<std::string> methods = {"SAE", "VSAE", "GM-VSAE", "DeepTEA",
                                      "CausalTAD"};
  const char* env = std::getenv("CAUSALTAD_FIG6_METHODS");
  if (env == nullptr) return methods;
  std::vector<std::string> filtered;
  std::string list(env), item;
  for (size_t pos = 0; pos <= list.size(); ++pos) {
    if (pos == list.size() || list[pos] == ',') {
      if (!item.empty()) filtered.push_back(item);
      item.clear();
    } else {
      item += list[pos];
    }
  }
  return filtered.empty() ? methods : filtered;
}

void RunPanel(const causaltad::eval::CityExperimentConfig& config,
              const ExperimentData& data, causaltad::eval::Scale scale,
              bool ood, const char* title) {
  const auto& normal_set = ood ? data.ood_test : data.id_test;
  const auto& anomaly_set = ood ? data.ood_switch : data.id_switch;
  // Subsample to keep the 10-ratio sweep tractable on one core.
  const auto normals = Subsample(normal_set, 400, 31);
  const auto anomalies = Subsample(anomaly_set, 400, 32);

  std::printf("\n== Fig. 6%s — %s ==\n", ood ? "(b)" : "(a)", title);
  for (const char* metric : {"ROC-AUC", "PR-AUC"}) {
    std::printf("\n%s:\n", metric);
    std::vector<std::string> cols = {"Method"};
    for (const double r : kRatios) {
      cols.push_back("r=" + TablePrinter::Fmt(r, 1));
    }
    TablePrinter table(cols);
    table.PrintHeader();
    for (const std::string& name : PanelMethods()) {
      const auto scorer =
          causaltad::eval::FitOrLoad(name, data, config.name, scale);
      // All 10 ratios from one checkpointed pass per set.
      const auto normal_scores = ScoreSetAtRatios(*scorer, normals, kRatios);
      const auto anomaly_scores =
          ScoreSetAtRatios(*scorer, anomalies, kRatios);
      std::vector<std::string> cells = {name};
      for (size_t r = 0; r < kRatios.size(); ++r) {
        const auto result =
            EvaluateScores(normal_scores[r], anomaly_scores[r]);
        cells.push_back(TablePrinter::Fmt(
            std::string(metric) == "ROC-AUC" ? result.roc_auc
                                             : result.pr_auc));
      }
      table.PrintRow(cells);
    }
  }
}

// ---------------------------------------------------------------------------
// Online serving throughput: rescoring vs incremental vs StreamingBatcher.
// ---------------------------------------------------------------------------

struct ThroughputRow {
  std::string city;
  std::string method;
  int64_t trips = 0;
  int64_t points = 0;
  double rescoring_pps = 0.0;    // reference path points/sec
  double incremental_pps = 0.0;  // per-trip incremental sessions
  double batcher_pps = 0.0;      // StreamingBatcher (0 = not applicable)
  double speedup = 0.0;          // incremental / rescoring
  double max_abs_diff = 0.0;     // incremental Update vs Score(trip, k)
  double batcher_max_abs_diff = 0.0;
};

template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    causaltad::util::Stopwatch watch;
    fn();
    const double elapsed = watch.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// Feeds every point of every trip through per-trip BeginTrip sessions —
// the base class's rescoring reference sessions when `rescoring` is set.
void DriveSessions(const TrajectoryScorer* scorer,
                   const std::vector<Trip>& trips, bool rescoring,
                   std::vector<std::vector<double>>* scores_out) {
  for (size_t i = 0; i < trips.size(); ++i) {
    auto session = rescoring ? scorer->TrajectoryScorer::BeginTrip(trips[i])
                             : scorer->BeginTrip(trips[i]);
    std::vector<double>* scores =
        scores_out != nullptr ? &(*scores_out)[i] : nullptr;
    if (scores != nullptr) scores->clear();
    double score = 0.0;
    for (const auto segment : trips[i].route.segments) {
      score = session->Update(segment);
      if (scores != nullptr) scores->push_back(score);
    }
    if (scores == nullptr) {
      volatile double sink = score;
      (void)sink;
    }
  }
}

ThroughputRow MeasureOnline(const std::string& city,
                            const std::string& method,
                            const TrajectoryScorer* scorer,
                            const CausalTad* causal, ScoreVariant variant,
                            const std::vector<Trip>& trips) {
  ThroughputRow row;
  row.city = city;
  row.method = method;
  row.trips = static_cast<int64_t>(trips.size());
  for (const Trip& trip : trips) row.points += trip.route.size();

  // Reference scores Score(trip, k) for every k — the parity ground truth.
  std::vector<std::vector<double>> reference(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    for (int64_t k = 1; k <= trips[i].route.size(); ++k) {
      reference[i].push_back(scorer->Score(trips[i], k));
    }
  }

  // Same protocol for all three paths (best of 3 warm reps), so the
  // published speedups compare like with like.
  constexpr int kReps = 3;
  const double rescoring_s = BestOf(kReps, [&] {
    DriveSessions(scorer, trips, /*rescoring=*/true, nullptr);
  });
  std::vector<std::vector<double>> incremental(trips.size());
  const double incremental_s = BestOf(kReps, [&] {
    DriveSessions(scorer, trips, /*rescoring=*/false, &incremental);
  });
  for (size_t i = 0; i < trips.size(); ++i) {
    for (size_t k = 0; k < reference[i].size(); ++k) {
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::abs(incremental[i][k] - reference[i][k]));
    }
  }
  row.rescoring_pps = row.points / std::max(rescoring_s, 1e-12);
  row.incremental_pps = row.points / std::max(incremental_s, 1e-12);
  row.speedup = row.incremental_pps / std::max(row.rescoring_pps, 1e-12);

  if (causal != nullptr) {
    // StreamingBatcher: all trips live at once, one shared [B, hidden]
    // state; every Step advances one point of every active session.
    std::vector<std::vector<double>> streamed(trips.size());
    const double batcher_s = BestOf(kReps, [&] {
      causaltad::serve::StreamingBatcher batcher(causal, variant,
                                                 causal->lambda());
      std::vector<causaltad::serve::StreamingSession> sessions;
      sessions.reserve(trips.size());
      for (const Trip& trip : trips) sessions.push_back(batcher.Begin(trip));
      for (size_t i = 0; i < trips.size(); ++i) {
        for (const auto segment : trips[i].route.segments) {
          sessions[i].Push(segment);
        }
        sessions[i].End();
      }
      batcher.Flush();
      for (size_t i = 0; i < trips.size(); ++i) {
        streamed[i] = sessions[i].Poll();
      }
    });
    row.batcher_pps = row.points / std::max(batcher_s, 1e-12);
    for (size_t i = 0; i < trips.size(); ++i) {
      for (size_t k = 0; k < reference[i].size(); ++k) {
        row.batcher_max_abs_diff =
            std::max(row.batcher_max_abs_diff,
                     std::abs(streamed[i][k] - reference[i][k]));
      }
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// StreamingService: sharded + pumped serving front-end (1 vs N shards,
// pump on/off), with backpressure engaged by the feed loop.
// ---------------------------------------------------------------------------

causaltad::serve::ServiceOptions BenchServiceOptions() {
  causaltad::serve::ServiceOptions options;
  options.num_shards = 1;
  options.pump = true;
  options.max_session_pending = 8;  // tight enough that bursts backpressure
  options.max_shard_queued = 1 << 14;
  options.batcher.max_batch_rows = 64;
  options.batcher.max_delay_ms = 0.1;
  return options;
}

struct ServiceRow {
  std::string city;
  int shards = 1;
  bool pump = false;
  int64_t trips = 0;
  int64_t points = 0;
  double pps = 0.0;
  double occupancy = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t rejected_session_full = 0;
  int64_t rejected_shard_full = 0;
  double max_abs_diff = 0.0;
};

ServiceRow MeasureService(const std::string& city, const CausalTad* causal,
                          const std::vector<Trip>& trips,
                          const std::vector<std::vector<double>>& reference,
                          int shards, bool pump) {
  ServiceRow row;
  row.city = city;
  row.shards = shards;
  row.pump = pump;
  row.trips = static_cast<int64_t>(trips.size());
  for (const Trip& trip : trips) row.points += trip.route.size();

  causaltad::serve::ServiceOptions options = BenchServiceOptions();
  options.num_shards = shards;
  options.pump = pump;

  constexpr int kReps = 3;
  std::vector<std::vector<double>> streamed(trips.size());
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    causaltad::util::Stopwatch watch;
    causaltad::serve::StreamingService service(causal, options);
    std::vector<causaltad::serve::SessionId> ids;
    ids.reserve(trips.size());
    for (const Trip& trip : trips) ids.push_back(service.Begin(trip));
    // Round-robin feed, one point per session per sweep; a rejected push
    // retries next sweep while the pump (or the inline StepAll) drains.
    std::vector<size_t> fed(trips.size(), 0);
    bool done = false;
    while (!done) {
      done = true;
      int64_t accepted = 0;
      for (size_t i = 0; i < trips.size(); ++i) {
        const auto& segments = trips[i].route.segments;
        if (fed[i] >= segments.size()) continue;
        if (service.Push(ids[i], segments[fed[i]]) ==
            causaltad::serve::PushStatus::kAccepted) {
          ++accepted;
          if (++fed[i] == segments.size()) service.End(ids[i]);
        }
        done = false;
      }
      if (!pump) {
        service.StepAll();
      } else if (accepted == 0 && !done) {
        // Fully backpressured: give the pump threads the core.
        std::this_thread::yield();
      }
    }
    service.Shutdown();
    const double elapsed = watch.ElapsedSeconds();
    // Stats ride with the rep whose elapsed becomes the published best,
    // so every JSON row is internally consistent (pps, occupancy, queue
    // waits, and rejections all describe the same run).
    if (rep == 0 || elapsed < best) {
      best = elapsed;
      const causaltad::serve::ServiceStats stats = service.stats();
      row.occupancy = stats.step_occupancy;
      row.p50_ms = stats.queue_wait_p50_ms;
      row.p95_ms = stats.queue_wait_p95_ms;
      row.p99_ms = stats.queue_wait_p99_ms;
      row.rejected_session_full = stats.rejected_session_full;
      row.rejected_shard_full = stats.rejected_shard_full;
      for (size_t i = 0; i < trips.size(); ++i) {
        streamed[i] = service.Poll(ids[i]);
      }
    }
  }
  row.pps = row.points / std::max(best, 1e-12);
  for (size_t i = 0; i < trips.size(); ++i) {
    for (size_t k = 0; k < reference[i].size(); ++k) {
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::abs(streamed[i][k] - reference[i][k]));
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// Metrics-overhead A/B ("fig6_metrics"): the identical 1-shard pumped
// service run with the obs registry live vs obs::SetEnabled(false). The
// instrumented hot path is one relaxed atomic per event, so the published
// overhead_pct is the ceiling guard for src/obs/ (budget: <= 2%).
// ---------------------------------------------------------------------------

struct MetricsRow {
  std::string city;
  int64_t trips = 0;
  int64_t points = 0;
  double metrics_on_pps = 0.0;
  double metrics_off_pps = 0.0;
  double overhead_pct = 0.0;  // (off - on) / off, percent
  double max_abs_diff = 0.0;
};

MetricsRow MeasureMetricsOverhead(
    const std::string& city, const CausalTad* causal,
    const std::vector<Trip>& trips,
    const std::vector<std::vector<double>>& reference) {
  MetricsRow row;
  row.city = city;
  // The per-event cost under test is one relaxed atomic, so the A/B needs
  // a run long enough that scheduler noise does not swamp it: repeat the
  // trip set so each timed run is tens of ms, not single-digit (each
  // repeat is its own set of sessions; scores stay parity-checked).
  constexpr int kRepeat = 8;
  std::vector<Trip> big_trips;
  std::vector<std::vector<double>> big_reference;
  big_trips.reserve(trips.size() * kRepeat);
  big_reference.reserve(reference.size() * kRepeat);
  for (int r = 0; r < kRepeat; ++r) {
    big_trips.insert(big_trips.end(), trips.begin(), trips.end());
    big_reference.insert(big_reference.end(), reference.begin(),
                         reference.end());
  }
  causaltad::obs::SetEnabled(true);
  const ServiceRow on = MeasureService(city, causal, big_trips,
                                       big_reference,
                                       /*shards=*/1, /*pump=*/true);
  causaltad::obs::SetEnabled(false);
  const ServiceRow off = MeasureService(city, causal, big_trips,
                                        big_reference,
                                        /*shards=*/1, /*pump=*/true);
  causaltad::obs::SetEnabled(true);
  row.trips = on.trips;
  row.points = on.points;
  row.metrics_on_pps = on.pps;
  row.metrics_off_pps = off.pps;
  row.overhead_pct =
      (off.pps - on.pps) / std::max(off.pps, 1e-12) * 100.0;
  row.max_abs_diff = std::max(on.max_abs_diff, off.max_abs_diff);
  return row;
}

// ---------------------------------------------------------------------------
// Wire front-end: net::Client -> net::Server (loopback socketpair) ->
// StreamingService, vs the identical service driven in-process.
// ---------------------------------------------------------------------------

struct WireRow {
  std::string city;
  int64_t trips = 0;
  int64_t points = 0;
  double wire_pps = 0.0;    // client-observed, Begin to last Finish
  double inproc_pps = 0.0;  // same service options, driven directly
  double wire_vs_inproc = 0.0;
  int64_t retransmits = 0;
  int64_t rejected_session_full = 0;
  double dispatch_p99_ms = 0.0;  // server-side per-frame dispatch
  double max_abs_diff = 0.0;     // wire scores vs Score(trip, k)
};

WireRow MeasureWire(const std::string& city, const CausalTad* causal,
                    const causaltad::roadnet::RoadNetwork* network,
                    const std::vector<Trip>& trips,
                    const std::vector<std::vector<double>>& reference,
                    double inproc_pps) {
  WireRow row;
  row.city = city;
  row.trips = static_cast<int64_t>(trips.size());
  for (const Trip& trip : trips) row.points += trip.route.size();
  row.inproc_pps = inproc_pps;

  constexpr int kReps = 3;
  std::vector<std::vector<double>> streamed(trips.size());
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    causaltad::serve::StreamingService service(causal,
                                               BenchServiceOptions());
    causaltad::net::ServerOptions server_options;
    server_options.network = network;  // production validation on
    causaltad::net::Server server(&service, server_options);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "wire bench: server failed to start\n");
      row.max_abs_diff = 1.0;  // poison the parity bound: nothing compared
      return row;
    }
    causaltad::net::ClientOptions client_options;
    client_options.max_inflight = 128;
    auto client = causaltad::net::Client::FromFd(
        server.AddLoopbackConnection(), client_options);
    if (!client->Hello().ok()) {
      std::fprintf(stderr, "wire bench: hello failed: %s\n",
                   client->status().ToString().c_str());
      row.max_abs_diff = 1.0;
      return row;
    }

    causaltad::util::Stopwatch watch;
    std::vector<uint64_t> ids;
    ids.reserve(trips.size());
    for (const Trip& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    // Round-robin, one point per session per sweep — the same concurrent
    // feed the in-process service rows use; the client's window flow
    // control and go-back-N retries absorb backpressure.
    std::vector<size_t> fed(trips.size(), 0);
    bool done = false;
    while (!done) {
      done = true;
      for (size_t i = 0; i < trips.size(); ++i) {
        const auto& segments = trips[i].route.segments;
        if (fed[i] >= segments.size()) continue;
        if (!client->Push(ids[i], segments[fed[i]]).ok()) {
          std::fprintf(stderr, "wire bench: push failed: %s\n",
                       client->status().ToString().c_str());
          row.max_abs_diff = 1.0;
          return row;
        }
        if (++fed[i] < segments.size()) done = false;
      }
    }
    std::vector<std::vector<double>> rep_scores(trips.size());
    for (size_t i = 0; i < trips.size(); ++i) {
      auto finished = client->Finish(ids[i]);
      if (!finished.ok()) {
        std::fprintf(stderr, "wire bench: finish failed: %s\n",
                     finished.status().ToString().c_str());
        row.max_abs_diff = 1.0;
        return row;
      }
      rep_scores[i] = *std::move(finished);
    }
    const double elapsed = watch.ElapsedSeconds();
    if (rep == 0 || elapsed < best) {
      best = elapsed;
      streamed = std::move(rep_scores);
      const causaltad::net::ServerStats stats = server.stats();
      row.retransmits = client->stats().retransmits;
      row.rejected_session_full = stats.rejected_session_full;
      row.dispatch_p99_ms = stats.dispatch_p99_ms;
    }
    server.Stop();
    service.Shutdown();
  }
  row.wire_pps = row.points / std::max(best, 1e-12);
  row.wire_vs_inproc = row.wire_pps / std::max(row.inproc_pps, 1e-12);
  for (size_t i = 0; i < trips.size(); ++i) {
    for (size_t k = 0; k < reference[i].size() && k < streamed[i].size();
         ++k) {
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::abs(streamed[i][k] - reference[i][k]));
    }
    if (streamed[i].size() != reference[i].size()) {
      std::fprintf(stderr, "wire bench: trip %zu got %zu/%zu scores\n", i,
                   streamed[i].size(), reference[i].size());
      row.max_abs_diff = 1.0;  // poison the parity bound: scores were lost
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// Faulted wire path: the same client -> server -> service loopback, with a
// deterministic FaultInjector at both socket boundaries and the client's
// session continuity (reconnect + prefix replay) turned on.
// ---------------------------------------------------------------------------

struct FaultRow {
  std::string city;
  double fault_pct = 0.0;  // per-send fault probability, percent
  int64_t trips = 0;
  int64_t points = 0;
  double pps = 0.0;           // client-observed, faults + recoveries included
  int64_t faults_fired = 0;   // injector total (both endpoints)
  int64_t reconnects = 0;     // outages survived
  int64_t retransmits = 0;    // go-back-N + resume replays
  int64_t dup_scores = 0;     // redeliveries dropped by the dedupe
  double recovery_ms = 0.0;   // last outage: first failure -> resumed
  double max_abs_diff = 0.0;  // faulted wire scores vs Score(trip, k)
};

FaultRow MeasureFault(const std::string& city, const CausalTad* causal,
                      const causaltad::roadnet::RoadNetwork* network,
                      const std::vector<Trip>& trips,
                      const std::vector<std::vector<double>>& reference,
                      double fault_pct) {
  FaultRow row;
  row.city = city;
  row.fault_pct = fault_pct;
  row.trips = static_cast<int64_t>(trips.size());
  for (const Trip& trip : trips) row.points += trip.route.size();

  const double f = fault_pct / 100.0;
  constexpr int kReps = 2;
  std::vector<std::vector<double>> streamed(trips.size());
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    causaltad::net::FaultOptions fault_options;
    fault_options.drop_rate = f / 3.0;
    fault_options.dup_rate = f / 3.0;
    fault_options.truncate_rate = f / 3.0;
    fault_options.short_write_rate = f;
    fault_options.kill_rate = f / 10.0;
    fault_options.delay_rate = f;
    fault_options.delay_ms = 0.05;
    fault_options.seed = 0;  // CAUSALTAD_FAULT_SEED, or the fixed default
    causaltad::net::FaultInjector injector(fault_options);

    causaltad::serve::StreamingService service(causal,
                                               BenchServiceOptions());
    causaltad::net::ServerOptions server_options;
    server_options.network = network;
    server_options.detached_linger_ms = 60000.0;  // outages park, not expire
    server_options.fault = &injector;
    causaltad::net::Server server(&service, server_options);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "fault bench: server failed to start\n");
      row.max_abs_diff = 1.0;
      return row;
    }

    causaltad::net::ClientOptions client_options;
    client_options.max_inflight = 64;
    client_options.timeout_ms = 60000.0;
    client_options.reconnect = true;
    client_options.client_id = 5;
    client_options.max_reconnect_attempts = 64;
    client_options.reconnect_base_ms = 1.0;
    client_options.reconnect_max_ms = 50.0;
    client_options.fault = &injector;
    client_options.dialer = [&server] {
      return server.AddLoopbackConnection();
    };
    auto client = causaltad::net::Client::FromFd(
        server.AddLoopbackConnection(), client_options);
    if (!client->Hello().ok()) {
      std::fprintf(stderr, "fault bench: hello failed: %s\n",
                   client->status().ToString().c_str());
      row.max_abs_diff = 1.0;
      return row;
    }

    // Waves of 8 concurrent sessions: a resume handshake re-establishes
    // every live session, so unbounded concurrency makes the handshake
    // itself long enough that at 5% some fault always lands inside it and
    // no recovery attempt can ever complete. Real producers bound their
    // in-flight trips for the same reason.
    constexpr size_t kWave = 8;
    causaltad::util::Stopwatch watch;
    std::vector<std::vector<double>> rep_scores(trips.size());
    for (size_t base = 0; base < trips.size(); base += kWave) {
      const size_t end = std::min(base + kWave, trips.size());
      std::vector<uint64_t> ids(end - base);
      for (size_t i = base; i < end; ++i) {
        ids[i - base] = client->Begin(trips[i].route.segments.front(),
                                      trips[i].route.segments.back(),
                                      trips[i].time_slot);
      }
      std::vector<size_t> fed(end - base, 0);
      bool done = false;
      while (!done) {
        done = true;
        for (size_t i = base; i < end; ++i) {
          const auto& segments = trips[i].route.segments;
          if (fed[i - base] >= segments.size()) continue;
          if (!client->Push(ids[i - base], segments[fed[i - base]]).ok()) {
            std::fprintf(stderr, "fault bench: push failed: %s\n",
                         client->status().ToString().c_str());
            row.max_abs_diff = 1.0;
            return row;
          }
          if (++fed[i - base] < segments.size()) done = false;
        }
      }
      for (size_t i = base; i < end; ++i) {
        auto finished = client->Finish(ids[i - base]);
        if (!finished.ok()) {
          std::fprintf(stderr, "fault bench: finish failed: %s\n",
                       finished.status().ToString().c_str());
          row.max_abs_diff = 1.0;
          return row;
        }
        rep_scores[i] = *std::move(finished);
      }
    }
    const double elapsed = watch.ElapsedSeconds();
    if (rep == 0 || elapsed < best) {
      best = elapsed;
      streamed = std::move(rep_scores);
      const causaltad::net::ClientStats cs = client->stats();
      row.reconnects = cs.reconnects;
      row.retransmits = cs.retransmits;
      row.dup_scores = cs.dup_scores;
      row.recovery_ms = cs.last_recovery_ms;
      const causaltad::net::FaultStats fs = injector.stats();
      row.faults_fired = fs.drops + fs.dups + fs.truncates +
                         fs.short_writes + fs.kills + fs.delays;
    }
    server.Stop();
    service.Shutdown();
  }
  row.pps = row.points / std::max(best, 1e-12);
  for (size_t i = 0; i < trips.size(); ++i) {
    for (size_t k = 0; k < reference[i].size() && k < streamed[i].size();
         ++k) {
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::abs(streamed[i][k] - reference[i][k]));
    }
    if (streamed[i].size() != reference[i].size()) {
      std::fprintf(stderr, "fault bench: trip %zu got %zu/%zu scores\n", i,
                   streamed[i].size(), reference[i].size());
      row.max_abs_diff = 1.0;  // poison the parity bound: scores were lost
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// Cluster path: downstream client -> net::Router -> N backend Servers, each
// over its own pumped StreamingService. Scenarios: steady-state throughput
// (1 vs N backends), kill-a-backend mid-stream (failover + prefix-replay
// recovery time), and RollSwap under load (zero-downtime model swap; the
// resolver hands back the same fitted model, so parity directly validates
// the stage/drain/commit machinery).
// ---------------------------------------------------------------------------

struct ClusterRow {
  std::string city;
  std::string scenario;  // "steady" | "kill" | "swap"
  int backends = 1;
  int64_t trips = 0;
  int64_t points = 0;
  double pps = 0.0;           // client-observed, scenario event included
  int64_t failovers = 0;      // upstream dials that landed off-home
  int64_t migrations = 0;     // drain-triggered leg migrations
  int64_t reconnects = 0;     // upstream outages survived
  int64_t swaps_rolled = 0;   // backends staged+committed by RollSwap
  double recovery_ms = 0.0;   // kill: kill -> every session re-polled
  double max_abs_diff = 0.0;  // routed scores vs Score(trip, k)
};

ClusterRow MeasureCluster(const std::string& city, const CausalTad* causal,
                          const causaltad::roadnet::RoadNetwork* network,
                          const std::vector<Trip>& trips,
                          const std::vector<std::vector<double>>& reference,
                          int num_backends, const std::string& scenario) {
  ClusterRow row;
  row.city = city;
  row.scenario = scenario;
  row.backends = num_backends;
  row.trips = static_cast<int64_t>(trips.size());
  for (const Trip& trip : trips) row.points += trip.route.size();

  struct Backend {
    std::unique_ptr<causaltad::serve::StreamingService> service;
    std::unique_ptr<causaltad::net::Server> server;
  };
  const int kReps = scenario == "steady" ? 2 : 1;
  std::vector<std::vector<double>> streamed;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::mutex backends_mu;
    std::vector<Backend> backends(num_backends);
    causaltad::serve::ServiceOptions service_options = BenchServiceOptions();
    service_options.num_shards = 2;
    for (Backend& b : backends) {
      b.service = std::make_unique<causaltad::serve::StreamingService>(
          causal, service_options);
      causaltad::net::ServerOptions server_options;
      server_options.network = network;
      server_options.detached_linger_ms = 60000.0;
      server_options.model_resolver =
          [causal](const std::string&) { return causal; };
      b.server = std::make_unique<causaltad::net::Server>(b.service.get(),
                                                          server_options);
      if (!b.server->Start().ok()) {
        std::fprintf(stderr, "cluster bench: backend failed to start\n");
        row.max_abs_diff = 1.0;
        return row;
      }
    }

    std::vector<causaltad::net::RouterBackend> router_backends(num_backends);
    for (int i = 0; i < num_backends; ++i) {
      router_backends[i].dialer = [&backends, &backends_mu, i] {
        std::lock_guard<std::mutex> lock(backends_mu);
        return backends[i].server != nullptr
                   ? backends[i].server->AddLoopbackConnection()
                   : -1;
      };
    }
    causaltad::net::RouterOptions router_options;
    router_options.upstream.max_inflight = 64;
    router_options.upstream.timeout_ms = 60000.0;
    router_options.upstream.max_reconnect_attempts = 64;
    router_options.upstream.reconnect_base_ms = 1.0;
    router_options.upstream.reconnect_max_ms = 50.0;
    router_options.health_interval_ms = 10.0;
    router_options.health_failure_threshold = 2;
    causaltad::net::Router router(std::move(router_backends),
                                  router_options);
    if (!router.Start().ok()) {
      std::fprintf(stderr, "cluster bench: router failed to start\n");
      row.max_abs_diff = 1.0;
      return row;
    }

    causaltad::net::ClientOptions client_options;
    client_options.max_inflight = 64;
    client_options.timeout_ms = 60000.0;
    auto client = causaltad::net::Client::FromFd(
        router.AddLoopbackConnection(), client_options);
    if (!client->Hello().ok()) {
      std::fprintf(stderr, "cluster bench: hello failed: %s\n",
                   client->status().ToString().c_str());
      row.max_abs_diff = 1.0;
      return row;
    }

    auto fail = [&row](const char* what, const causaltad::util::Status& s) {
      std::fprintf(stderr, "cluster bench: %s failed: %s\n", what,
                   s.ToString().c_str());
      row.max_abs_diff = 1.0;
    };

    causaltad::util::Stopwatch watch;
    std::vector<std::vector<double>> rep_scores(trips.size());
    std::vector<uint64_t> ids(trips.size());
    std::vector<size_t> fed(trips.size(), 0);
    for (size_t i = 0; i < trips.size(); ++i) {
      ids[i] = client->Begin(trips[i].route.segments.front(),
                             trips[i].route.segments.back(),
                             trips[i].time_slot);
    }
    // Round-robin feed up to `until(i)` points per trip; one pass = one
    // point per unfinished trip, so sessions interleave across backends.
    auto feed = [&](const std::function<size_t(size_t)>& until) -> bool {
      bool done = false;
      while (!done) {
        done = true;
        for (size_t i = 0; i < trips.size(); ++i) {
          const auto& segments = trips[i].route.segments;
          const size_t stop = std::min(until(i), segments.size());
          if (fed[i] >= stop) continue;
          if (!client->Push(ids[i], segments[fed[i]]).ok()) {
            fail("push", client->status());
            return false;
          }
          if (++fed[i] < stop) done = false;
        }
      }
      return true;
    };
    // Poll round trips double as an ordering barrier: every score the
    // backends have produced so far lands in rep_scores before we return.
    auto poll_all = [&]() -> bool {
      for (size_t i = 0; i < trips.size(); ++i) {
        auto polled = client->Poll(ids[i]);
        if (!polled.ok()) {
          fail("poll", polled.status());
          return false;
        }
        rep_scores[i].insert(rep_scores[i].end(), polled->begin(),
                             polled->end());
      }
      return true;
    };

    // First half, then the scenario event mid-stream, then the rest.
    if (!feed([&](size_t i) { return trips[i].route.segments.size() / 2; }))
      return row;
    if (!poll_all()) return row;
    if (scenario == "kill") {
      int victim = 0;
      int64_t most = -1;
      for (int i = 0; i < num_backends; ++i) {
        const int64_t begun = backends[i].service->stats().sessions_begun;
        if (begun > most) {
          most = begun;
          victim = i;
        }
      }
      Backend killed;
      {
        std::lock_guard<std::mutex> lock(backends_mu);
        killed = std::move(backends[victim]);
      }
      causaltad::util::Stopwatch recovery;
      killed.server->Stop();
      killed.server.reset();
      killed.service->Shutdown();
      killed.service.reset();
      // Recovery = every surviving session answers a Poll again, which
      // forces the failover dial + journaled prefix replay on each leg.
      if (!poll_all()) return row;
      row.recovery_ms = recovery.ElapsedSeconds() * 1000.0;
    } else if (scenario == "swap") {
      const causaltad::util::Status swapped = router.RollSwap("bench-v1");
      if (!swapped.ok()) {
        fail("roll swap", swapped);
        return row;
      }
    }
    if (!feed([&](size_t i) { return trips[i].route.segments.size(); }))
      return row;
    for (size_t i = 0; i < trips.size(); ++i) {
      auto finished = client->Finish(ids[i]);
      if (!finished.ok()) {
        fail("finish", finished.status());
        return row;
      }
      rep_scores[i].insert(rep_scores[i].end(), finished->begin(),
                           finished->end());
    }
    const double elapsed = watch.ElapsedSeconds();
    if (rep == 0 || elapsed < best) {
      best = elapsed;
      streamed = std::move(rep_scores);
      const causaltad::net::RouterStats rs = router.stats();
      row.failovers = rs.failovers;
      row.migrations = rs.migrations;
      row.reconnects = rs.upstream_reconnects;
      row.swaps_rolled = rs.swaps_rolled;
      if (scenario != "kill") row.recovery_ms = 0.0;
    }
    router.Stop();
    for (Backend& b : backends) {
      std::lock_guard<std::mutex> lock(backends_mu);
      if (b.server != nullptr) b.server->Stop();
      if (b.service != nullptr) b.service->Shutdown();
    }
  }
  row.pps = row.points / std::max(best, 1e-12);
  for (size_t i = 0; i < trips.size(); ++i) {
    for (size_t k = 0; k < reference[i].size() && k < streamed[i].size();
         ++k) {
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::abs(streamed[i][k] - reference[i][k]));
    }
    if (streamed[i].size() != reference[i].size()) {
      std::fprintf(stderr, "cluster bench: trip %zu got %zu/%zu scores\n",
                   i, streamed[i].size(), reference[i].size());
      row.max_abs_diff = 1.0;  // poison the parity bound: scores were lost
    }
  }
  return row;
}

void WriteJson(const std::string& path, causaltad::eval::Scale scale,
               const std::vector<ThroughputRow>& rows,
               const std::vector<ServiceRow>& service_rows,
               const std::vector<MetricsRow>& metrics_rows,
               const std::vector<WireRow>& wire_rows,
               const std::vector<FaultRow>& fault_rows,
               const std::vector<ClusterRow>& cluster_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"figure\": \"fig6\",\n  \"scale\": \"%s\",\n",
               causaltad::eval::ScaleName(scale));
  std::fprintf(f, "  \"units\": \"points_per_sec\",\n");
  std::fprintf(f, "  \"fig6_throughput\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"method\": \"%s\", \"trips\": %lld, "
        "\"points\": %lld, \"rescoring_pps\": %.0f, "
        "\"incremental_pps\": %.0f, \"batcher_pps\": %.0f, "
        "\"speedup\": %.2f, \"max_abs_diff\": %.3g, "
        "\"batcher_max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), r.method.c_str(), static_cast<long long>(r.trips),
        static_cast<long long>(r.points), r.rescoring_pps, r.incremental_pps,
        r.batcher_pps, r.speedup, r.max_abs_diff, r.batcher_max_abs_diff,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig6_service\": [\n");
  for (size_t i = 0; i < service_rows.size(); ++i) {
    const ServiceRow& r = service_rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"shards\": %d, \"pump\": %s, "
        "\"trips\": %lld, \"points\": %lld, \"pps\": %.0f, "
        "\"occupancy\": %.3f, \"queue_wait_p50_ms\": %.4f, "
        "\"queue_wait_p95_ms\": %.4f, \"queue_wait_p99_ms\": %.4f, "
        "\"rejected_session_full\": %lld, \"rejected_shard_full\": %lld, "
        "\"max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), r.shards, r.pump ? "true" : "false",
        static_cast<long long>(r.trips), static_cast<long long>(r.points),
        r.pps, r.occupancy, r.p50_ms, r.p95_ms, r.p99_ms,
        static_cast<long long>(r.rejected_session_full),
        static_cast<long long>(r.rejected_shard_full), r.max_abs_diff,
        i + 1 < service_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig6_metrics\": [\n");
  for (size_t i = 0; i < metrics_rows.size(); ++i) {
    const MetricsRow& r = metrics_rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"trips\": %lld, \"points\": %lld, "
        "\"metrics_on_pps\": %.0f, \"metrics_off_pps\": %.0f, "
        "\"overhead_pct\": %.2f, \"max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), static_cast<long long>(r.trips),
        static_cast<long long>(r.points), r.metrics_on_pps,
        r.metrics_off_pps, r.overhead_pct, r.max_abs_diff,
        i + 1 < metrics_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig6_wire\": [\n");
  for (size_t i = 0; i < wire_rows.size(); ++i) {
    const WireRow& r = wire_rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"trips\": %lld, \"points\": %lld, "
        "\"wire_pps\": %.0f, \"inproc_pps\": %.0f, "
        "\"wire_vs_inproc\": %.3f, \"retransmits\": %lld, "
        "\"rejected_session_full\": %lld, \"dispatch_p99_ms\": %.4f, "
        "\"max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), static_cast<long long>(r.trips),
        static_cast<long long>(r.points), r.wire_pps, r.inproc_pps,
        r.wire_vs_inproc, static_cast<long long>(r.retransmits),
        static_cast<long long>(r.rejected_session_full), r.dispatch_p99_ms,
        r.max_abs_diff, i + 1 < wire_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig6_fault\": [\n");
  for (size_t i = 0; i < fault_rows.size(); ++i) {
    const FaultRow& r = fault_rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"fault_pct\": %.1f, \"trips\": %lld, "
        "\"points\": %lld, \"pps\": %.0f, \"faults_fired\": %lld, "
        "\"reconnects\": %lld, \"retransmits\": %lld, "
        "\"dup_scores\": %lld, \"recovery_ms\": %.3f, "
        "\"max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), r.fault_pct, static_cast<long long>(r.trips),
        static_cast<long long>(r.points), r.pps,
        static_cast<long long>(r.faults_fired),
        static_cast<long long>(r.reconnects),
        static_cast<long long>(r.retransmits),
        static_cast<long long>(r.dup_scores), r.recovery_ms, r.max_abs_diff,
        i + 1 < fault_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig6_cluster\": [\n");
  for (size_t i = 0; i < cluster_rows.size(); ++i) {
    const ClusterRow& r = cluster_rows[i];
    std::fprintf(
        f,
        "    {\"city\": \"%s\", \"scenario\": \"%s\", \"backends\": %d, "
        "\"trips\": %lld, \"points\": %lld, \"pps\": %.0f, "
        "\"failovers\": %lld, \"migrations\": %lld, "
        "\"reconnects\": %lld, \"swaps_rolled\": %lld, "
        "\"recovery_ms\": %.3f, \"max_abs_diff\": %.3g}%s\n",
        r.city.c_str(), r.scenario.c_str(), r.backends,
        static_cast<long long>(r.trips), static_cast<long long>(r.points),
        r.pps, static_cast<long long>(r.failovers),
        static_cast<long long>(r.migrations),
        static_cast<long long>(r.reconnects),
        static_cast<long long>(r.swaps_rolled), r.recovery_ms,
        r.max_abs_diff, i + 1 < cluster_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && std::string(env) == "1";
}

}  // namespace

int main() {
  const causaltad::eval::Scale scale = causaltad::eval::ScaleFromEnv();
  struct Panel {
    causaltad::eval::CityExperimentConfig config;
    bool ood;
    const char* title;
  };
  const std::vector<Panel> panels = {
      {causaltad::eval::XianConfig(scale), false,
       "ID & Switch, Xi'an (observed-ratio sweep)"},
      {causaltad::eval::ChengduConfig(scale), true,
       "OOD & Switch, Chengdu (observed-ratio sweep)"}};

  std::vector<ThroughputRow> rows;
  std::vector<ServiceRow> service_rows;
  std::vector<MetricsRow> metrics_rows;
  std::vector<WireRow> wire_rows;
  std::vector<FaultRow> fault_rows;
  TablePrinter table({"City", "Method", "rescore p/s", "increm p/s",
                      "batcher p/s", "speedup", "max diff"});
  bool printed_header = false;
  int sharded = 4;
  if (const char* env = std::getenv("CAUSALTAD_FIG6_SERVICE_SHARDS")) {
    const int v = std::atoi(env);
    if (v > 0) sharded = v;
  }
  std::vector<ClusterRow> cluster_rows;
  const bool wire_only = EnvFlag("CAUSALTAD_FIG6_WIRE_ONLY");
  const bool cluster_only = EnvFlag("CAUSALTAD_FIG6_CLUSTER_ONLY");
  for (const Panel& panel : panels) {
    const ExperimentData data =
        causaltad::eval::BuildExperiment(panel.config);
    if (!wire_only && !cluster_only &&
        !EnvFlag("CAUSALTAD_FIG6_SKIP_PANELS")) {
      RunPanel(panel.config, data, scale, panel.ood, panel.title);
    }

    const auto causal_owner = causaltad::eval::FitOrLoad(
        causaltad::eval::kCausalTadName, data, panel.config.name, scale);
    const auto* causal = dynamic_cast<const CausalTad*>(causal_owner.get());
    if (!wire_only && !cluster_only) {
      // Online serving throughput, both cities. GM-VSAE stands in for the
      // RnnVae family (carried encoder, O(prefix) fused re-decode); TG-VAE
      // / RP-VAE / CausalTAD carry O(1)-per-point state.
      const auto gmvsae = causaltad::eval::FitOrLoad(
          "GM-VSAE", data, panel.config.name, scale);
      const CausalTadVariant tg_only(causal, ScoreVariant::kLikelihoodOnly);
      const CausalTadVariant rp_only(causal, ScoreVariant::kScalingOnly);
      const auto online_trips = Subsample(data.id_test, 30, 42);

      if (!printed_header) {
        std::printf("\n== Fig. 6 — online serving throughput (points/sec; "
                    "rescoring vs incremental vs StreamingBatcher) ==\n\n");
        table.PrintHeader();
        printed_header = true;
      }
      struct Entry {
        std::string name;
        const TrajectoryScorer* scorer;
        const CausalTad* batched;
        ScoreVariant variant;
      };
      const std::vector<Entry> entries = {
          {"GM-VSAE", gmvsae.get(), nullptr, ScoreVariant::kFull},
          {"TG-VAE", &tg_only, causal, ScoreVariant::kLikelihoodOnly},
          {"RP-VAE", &rp_only, causal, ScoreVariant::kScalingOnly},
          {"CausalTAD", causal, causal, ScoreVariant::kFull}};
      for (const Entry& entry : entries) {
        rows.push_back(MeasureOnline(panel.config.name, entry.name,
                                     entry.scorer, entry.batched,
                                     entry.variant, online_trips));
        const ThroughputRow& r = rows.back();
        table.PrintRow(
            {r.city, r.method, TablePrinter::Fmt(r.rescoring_pps, 0),
             TablePrinter::Fmt(r.incremental_pps, 0),
             r.batcher_pps > 0 ? TablePrinter::Fmt(r.batcher_pps, 0)
                               : std::string("-"),
             TablePrinter::Fmt(r.speedup, 1) + "x",
             TablePrinter::Fmt(
                 std::max(r.max_abs_diff, r.batcher_max_abs_diff), 7)});
      }
    }

    if (!cluster_only) {
    // StreamingService grid (CausalTAD full score): 1 vs N shards, pump
    // on/off, fed with backpressure engaged. Per-point reference scores
    // come from one checkpointed roll per trip; the wire section reuses
    // both the trips and the reference.
    const auto service_trips = Subsample(data.id_test, 120, 43);
    std::vector<std::vector<int64_t>> checkpoints(service_trips.size());
    for (size_t i = 0; i < service_trips.size(); ++i) {
      for (int64_t k = 1; k <= service_trips[i].route.size(); ++k) {
        checkpoints[i].push_back(k);
      }
    }
    const auto service_reference =
        causal->ScoreCheckpoints(service_trips, checkpoints);
    double inproc_pps = 0.0;
    if (wire_only) {
      // Just the wire row's in-process twin (1 shard, pump on).
      inproc_pps = MeasureService(panel.config.name, causal, service_trips,
                                  service_reference, 1, true)
                       .pps;
    } else {
      std::vector<std::pair<int, bool>> grid = {{1, false}, {1, true}};
      if (sharded > 1) {
        grid.emplace_back(sharded, false);
        grid.emplace_back(sharded, true);
      }
      for (const auto& [shards, pump] : grid) {
        service_rows.push_back(MeasureService(panel.config.name, causal,
                                              service_trips,
                                              service_reference, shards,
                                              pump));
        if (shards == 1 && pump) inproc_pps = service_rows.back().pps;
      }
      // Metrics on/off A/B on the same trips and reference: the published
      // overhead must stay within the src/obs/ budget (<= 2%).
      metrics_rows.push_back(MeasureMetricsOverhead(
          panel.config.name, causal, service_trips, service_reference));
    }
    wire_rows.push_back(MeasureWire(panel.config.name, causal,
                                    &data.city.network, service_trips,
                                    service_reference, inproc_pps));

    // Faulted reruns: a smaller trip set (recoveries stretch wall clock),
    // its own checkpointed reference, 0% as the like-for-like baseline.
    const auto fault_trips = Subsample(data.id_test, 40, 44);
    std::vector<std::vector<int64_t>> fault_checkpoints(fault_trips.size());
    for (size_t i = 0; i < fault_trips.size(); ++i) {
      for (int64_t k = 1; k <= fault_trips[i].route.size(); ++k) {
        fault_checkpoints[i].push_back(k);
      }
    }
    const auto fault_reference =
        causal->ScoreCheckpoints(fault_trips, fault_checkpoints);
    for (const double pct : {0.0, 1.0, 5.0}) {
      fault_rows.push_back(MeasureFault(panel.config.name, causal,
                                        &data.city.network, fault_trips,
                                        fault_reference, pct));
    }
    }  // !cluster_only

    if (!wire_only) {
      // Cluster path: router in front of 1 vs 3 backends, then the two
      // robustness scenarios against the 3-backend fleet.
      const auto cluster_trips = Subsample(data.id_test, 24, 45);
      std::vector<std::vector<int64_t>> cluster_checkpoints(
          cluster_trips.size());
      for (size_t i = 0; i < cluster_trips.size(); ++i) {
        for (int64_t k = 1; k <= cluster_trips[i].route.size(); ++k) {
          cluster_checkpoints[i].push_back(k);
        }
      }
      const auto cluster_reference =
          causal->ScoreCheckpoints(cluster_trips, cluster_checkpoints);
      struct ClusterConfig {
        int backends;
        const char* scenario;
      };
      const std::vector<ClusterConfig> cluster_grid = {
          {1, "steady"}, {3, "steady"}, {3, "kill"}, {3, "swap"}};
      for (const ClusterConfig& cfg : cluster_grid) {
        cluster_rows.push_back(MeasureCluster(
            panel.config.name, causal, &data.city.network, cluster_trips,
            cluster_reference, cfg.backends, cfg.scenario));
      }
    }
  }
  if (!wire_only && !cluster_only) {
    std::printf("\n== Fig. 6 — StreamingService (sharded + pumped "
                "front-end) ==\n\n");
    TablePrinter service_table({"City", "Shards", "Pump", "p/s", "occup",
                                "p50 ms", "p95 ms", "p99 ms", "max diff"});
    service_table.PrintHeader();
    for (const ServiceRow& r : service_rows) {
      service_table.PrintRow(
          {r.city, TablePrinter::Fmt(static_cast<double>(r.shards), 0),
           r.pump ? "on" : "off", TablePrinter::Fmt(r.pps, 0),
           TablePrinter::Fmt(r.occupancy, 2), TablePrinter::Fmt(r.p50_ms, 3),
           TablePrinter::Fmt(r.p95_ms, 3), TablePrinter::Fmt(r.p99_ms, 3),
           TablePrinter::Fmt(r.max_abs_diff, 7)});
    }
  }
  if (!wire_only && !cluster_only && !metrics_rows.empty()) {
    std::printf("\n== Fig. 6 — metrics overhead A/B (registry live vs "
                "obs::SetEnabled(false); 1 shard, pump on) ==\n\n");
    TablePrinter metrics_table({"City", "on p/s", "off p/s", "overhead %",
                                "max diff"});
    metrics_table.PrintHeader();
    for (const MetricsRow& r : metrics_rows) {
      metrics_table.PrintRow({r.city, TablePrinter::Fmt(r.metrics_on_pps, 0),
                              TablePrinter::Fmt(r.metrics_off_pps, 0),
                              TablePrinter::Fmt(r.overhead_pct, 2),
                              TablePrinter::Fmt(r.max_abs_diff, 7)});
    }
  }
  if (!cluster_only) {
  std::printf("\n== Fig. 6 — wire front-end (net::Client -> net::Server "
              "loopback -> StreamingService) ==\n\n");
  TablePrinter wire_table({"City", "wire p/s", "in-proc p/s", "ratio",
                           "retx", "rej", "disp p99 ms", "max diff"});
  wire_table.PrintHeader();
  for (const WireRow& r : wire_rows) {
    wire_table.PrintRow(
        {r.city, TablePrinter::Fmt(r.wire_pps, 0),
         TablePrinter::Fmt(r.inproc_pps, 0),
         TablePrinter::Fmt(r.wire_vs_inproc, 2) + "x",
         TablePrinter::Fmt(static_cast<double>(r.retransmits), 0),
         TablePrinter::Fmt(static_cast<double>(r.rejected_session_full), 0),
         TablePrinter::Fmt(r.dispatch_p99_ms, 4),
         TablePrinter::Fmt(r.max_abs_diff, 7)});
  }
  std::printf("\n== Fig. 6 — faulted wire path (deterministic fault "
              "injection, reconnecting client) ==\n\n");
  TablePrinter fault_table({"City", "fault %", "p/s", "faults", "reconn",
                            "retx", "dup", "recov ms", "max diff"});
  fault_table.PrintHeader();
  for (const FaultRow& r : fault_rows) {
    fault_table.PrintRow(
        {r.city, TablePrinter::Fmt(r.fault_pct, 1),
         TablePrinter::Fmt(r.pps, 0),
         TablePrinter::Fmt(static_cast<double>(r.faults_fired), 0),
         TablePrinter::Fmt(static_cast<double>(r.reconnects), 0),
         TablePrinter::Fmt(static_cast<double>(r.retransmits), 0),
         TablePrinter::Fmt(static_cast<double>(r.dup_scores), 0),
         TablePrinter::Fmt(r.recovery_ms, 2),
         TablePrinter::Fmt(r.max_abs_diff, 7)});
  }
  }  // !cluster_only
  if (!wire_only) {
    std::printf("\n== Fig. 6 — cluster path (net::Router -> N backend "
                "servers; failover, drain, hot swap) ==\n\n");
    TablePrinter cluster_table({"City", "scenario", "backends", "p/s",
                                "failov", "migr", "reconn", "swaps",
                                "recov ms", "max diff"});
    cluster_table.PrintHeader();
    for (const ClusterRow& r : cluster_rows) {
      cluster_table.PrintRow(
          {r.city, r.scenario,
           TablePrinter::Fmt(static_cast<double>(r.backends), 0),
           TablePrinter::Fmt(r.pps, 0),
           TablePrinter::Fmt(static_cast<double>(r.failovers), 0),
           TablePrinter::Fmt(static_cast<double>(r.migrations), 0),
           TablePrinter::Fmt(static_cast<double>(r.reconnects), 0),
           TablePrinter::Fmt(static_cast<double>(r.swaps_rolled), 0),
           TablePrinter::Fmt(r.recovery_ms, 2),
           TablePrinter::Fmt(r.max_abs_diff, 7)});
    }
  }
  std::printf("\n");
  const char* json_env = std::getenv("CAUSALTAD_FIG6_JSON");
  WriteJson(json_env != nullptr ? json_env : "BENCH_fig6.json", scale, rows,
            service_rows, metrics_rows, wire_rows, fault_rows, cluster_rows);
  return 0;
}
