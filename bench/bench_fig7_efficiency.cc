// Reproduces Fig. 7: (a) training scalability — wall-clock time of one
// training epoch as the training-set fraction grows from 20% to 100%
// (linear in the paper), plus the per-epoch throughput of the batched
// [B, hidden] minibatch trainer; (b) average inference runtime per trajectory at different
// observed ratios (iBOAT is far slower than the learned methods;
// CausalTAD ≈ TG-VAE thanks to the O(1) debiased updates and the
// successor-masked softmax).
//
// Both cities of the paper's evaluation (Xi'an and the larger Chengdu
// stand-in) run through parts (a) and (b); every BENCH_fig7.json row
// carries a "city" field.
//
// Part (a) is measured two ways:
//   * a per-fraction one-epoch wall-clock table (stdout), and
//   * one batched-minibatch training epoch per method at 100% of the
//     training set, reported as trips/sec — written to the
//     "fig7a_training" section of BENCH_fig7.json. Per-epoch time is net
//     of the path-independent setup (e.g. CausalTAD's scaling-table
//     rebuild), which is a fixed post-training cost, not a per-epoch one.
//
// Part (b) is measured two ways:
//   * google-benchmark timings of the O(1)-per-segment online sessions
//     (the paper's per-trajectory latency protocol), and
//   * a per-trip-vs-batched comparison — the seed per-trip tape path
//     (Score(), which builds an autograd tape per trajectory) against the
//     batched no-grad fast path (ScoreBatch(), [B, hidden] fused GRU rolls)
//     — written to BENCH_fig7.json so later PRs have a perf trajectory.
//
// The "fig7_isa" section repeats the batched ScoreBatch timing and one
// batched CausalTAD training epoch under every kernel table the host
// supports (native first; its scores are the max_rel_diff reference).
//
// Environment knobs:
//   CAUSALTAD_BENCH_SCALE=smoke|default|full   experiment scale
//   CAUSALTAD_FIG7_SKIP_TRAIN_TABLE=1          skip part (a)
//   CAUSALTAD_BENCH_MIN_TIME=<seconds>         google-benchmark MinTime
//   CAUSALTAD_BENCH_JSON=<path>                output path (BENCH_fig7.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "nn/kernels/kernels.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

using causaltad::core::CausalTad;
using causaltad::core::CausalTadVariant;
using causaltad::core::ScoreVariant;
using causaltad::eval::CityExperimentConfig;
using causaltad::eval::ExperimentData;
using causaltad::eval::Scale;
using causaltad::eval::Subsample;
using causaltad::eval::TablePrinter;

const ExperimentData& DataFor(const CityExperimentConfig& config) {
  static std::map<std::string, const ExperimentData*>* cache =
      new std::map<std::string, const ExperimentData*>();
  auto it = cache->find(config.name);
  if (it == cache->end()) {
    it = cache->emplace(config.name,
                        new ExperimentData(causaltad::eval::BuildExperiment(
                            config))).first;
  }
  return *it->second;
}

void TrainingScalabilityTable(const CityExperimentConfig& config,
                              Scale scale) {
  const ExperimentData& data = DataFor(config);
  std::printf("== Fig. 7(a) — one-epoch training time vs training-set "
              "fraction (%s, scale=%s) ==\n\n",
              config.name.c_str(), causaltad::eval::ScaleName(scale));
  const std::vector<std::string> names = {"SAE", "VSAE", "GM-VSAE",
                                          "DeepTEA", "CausalTAD"};
  const std::vector<double> fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  TablePrinter table(
      {"Method", "20%", "40%", "60%", "80%", "100%"});
  table.PrintHeader();
  causaltad::models::FitOptions options =
      causaltad::eval::FitOptionsFor(scale);
  options.epochs = 1;
  for (const std::string& name : names) {
    std::vector<std::string> cells = {name};
    for (const double frac : fractions) {
      const auto subset = Subsample(
          data.train, static_cast<int64_t>(frac * data.train.size()), 41);
      auto scorer = causaltad::eval::MakeScorer(name, data, scale);
      causaltad::util::Stopwatch watch;
      scorer->Fit(subset, options);
      cells.push_back(TablePrinter::Fmt(watch.ElapsedSeconds(), 2) + "s");
    }
    table.PrintRow(cells);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Part (a), comparison 2: batched minibatch training throughput.
// ---------------------------------------------------------------------------

struct TrainRow {
  std::string city;
  std::string method;
  int64_t trips = 0;
  double epoch_s = 0.0;
  double trips_per_s = 0.0;
};

TrainRow MeasureTraining(const CityExperimentConfig& config,
                         const std::string& method, Scale scale) {
  const ExperimentData& data = DataFor(config);
  causaltad::models::FitOptions options =
      causaltad::eval::FitOptionsFor(scale);

  // Epoch-independent setup cost (scorer bookkeeping, CausalTAD's
  // scaling-table rebuild): one Fit with zero epochs.
  options.epochs = 0;
  double setup_s;
  {
    auto scorer = causaltad::eval::MakeScorer(method, data, scale);
    causaltad::util::Stopwatch watch;
    scorer->Fit(data.train, options);
    setup_s = watch.ElapsedSeconds();
  }

  options.epochs = 1;
  auto scorer = causaltad::eval::MakeScorer(method, data, scale);
  causaltad::util::Stopwatch watch;
  scorer->Fit(data.train, options);

  TrainRow row;
  row.city = config.name;
  row.method = method;
  row.trips = static_cast<int64_t>(data.train.size());
  row.epoch_s = std::max(watch.ElapsedSeconds() - setup_s, 1e-9);
  row.trips_per_s = row.trips / row.epoch_s;
  return row;
}

// One online pass over a fixed batch of trajectories, prefix-limited to the
// observed ratio. state.counters report the per-trajectory latency.
void OnlineInference(benchmark::State& state,
                     const causaltad::models::TrajectoryScorer* scorer,
                     const std::vector<causaltad::traj::Trip>& trips,
                     double ratio) {
  for (auto _ : state) {
    for (const auto& trip : trips) {
      auto session = scorer->BeginTrip(trip);
      const int64_t prefix = std::max<int64_t>(
          1, static_cast<int64_t>(ratio * trip.route.size()));
      double score = 0.0;
      for (int64_t k = 0; k < prefix; ++k) {
        score = session->Update(trip.route.segments[k]);
      }
      benchmark::DoNotOptimize(score);
    }
  }
  state.counters["us_per_traj"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * trips.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// ---------------------------------------------------------------------------
// Per-trip tape path vs batched no-grad fast path (emitted as JSON).
// ---------------------------------------------------------------------------

struct BatchedRow {
  std::string city;
  std::string method;
  double ratio = 0.0;
  double per_trip_us = 0.0;
  double batched_us = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;  // parity guard: batched vs per-trip scores
};

// Best-of-`reps` wall-clock of `fn`, in seconds.
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

BatchedRow MeasureBatched(const std::string& city, const std::string& method,
                          const causaltad::models::TrajectoryScorer* scorer,
                          const std::vector<causaltad::traj::Trip>& trips,
                          double ratio) {
  std::vector<int64_t> prefixes;
  prefixes.reserve(trips.size());
  for (const auto& trip : trips) {
    const int64_t n = trip.route.size();
    prefixes.push_back(std::max<int64_t>(
        1, std::min<int64_t>(n, static_cast<int64_t>(std::ceil(ratio * n)))));
  }

  std::vector<double> per_trip_scores(trips.size());
  const double per_trip_s = BestOf(5, [&] {
    for (size_t i = 0; i < trips.size(); ++i) {
      per_trip_scores[i] = scorer->Score(trips[i], prefixes[i]);
    }
  });
  std::vector<double> batched_scores;
  const double batched_s = BestOf(5, [&] {
    batched_scores = scorer->ScoreBatch(trips, prefixes);
  });

  BatchedRow row;
  row.city = city;
  row.method = method;
  row.ratio = ratio;
  row.per_trip_us = per_trip_s * 1e6 / trips.size();
  row.batched_us = batched_s * 1e6 / trips.size();
  row.speedup = row.batched_us > 0.0 ? row.per_trip_us / row.batched_us : 0.0;
  for (size_t i = 0; i < trips.size(); ++i) {
    row.max_abs_diff = std::max(
        row.max_abs_diff, std::abs(batched_scores[i] - per_trip_scores[i]));
  }
  return row;
}

// ---------------------------------------------------------------------------
// Length-bucketed batching: ScoreBatch sharding A/B (emitted as JSON).
// ---------------------------------------------------------------------------

struct BucketRow {
  std::string city;
  std::string method;
  int64_t trips = 0;
  int threads = 0;  // worker-pool width the A/B ran with
  double unbucketed_us = 0.0;  // contiguous equal-count shards
  double bucketed_us = 0.0;    // length-sorted equal-work shards
  double speedup = 0.0;
  double max_abs_diff = 0.0;  // bucketed vs unbucketed scores
};

BucketRow MeasureBucketing(const std::string& city, const std::string& method,
                           const causaltad::models::TrajectoryScorer* scorer,
                           const std::vector<causaltad::traj::Trip>& trips) {
  BucketRow row;
  row.city = city;
  row.method = method;
  row.trips = static_cast<int64_t>(trips.size());
  // Bucketing balances work across the pool, so the gain scales with the
  // thread count; record it so the committed number is interpretable.
  row.threads = causaltad::util::ParallelThreads();
  std::vector<double> scores[2];
  double secs[2];
  for (const bool bucketed : {false, true}) {
    causaltad::util::SetLengthBucketing(bucketed);
    secs[bucketed] =
        BestOf(5, [&] { scores[bucketed] = scorer->ScoreBatch(trips, {}); });
  }
  causaltad::util::SetLengthBucketing(true);
  row.unbucketed_us = secs[0] * 1e6 / trips.size();
  row.bucketed_us = secs[1] * 1e6 / trips.size();
  row.speedup = row.bucketed_us > 0.0 ? row.unbucketed_us / row.bucketed_us
                                      : 0.0;
  for (size_t i = 0; i < trips.size(); ++i) {
    row.max_abs_diff =
        std::max(row.max_abs_diff, std::abs(scores[1][i] - scores[0][i]));
  }
  return row;
}

// ---------------------------------------------------------------------------
// Kernel-substrate A/B: ISA dispatch (emitted as JSON).
// ---------------------------------------------------------------------------

struct IsaRow {
  std::string city;
  std::string isa;  // kernel table pinned for this row
  double batched_us = 0.0;
  double max_rel_diff = 0.0;  // scores vs the native fp32 reference row
  double epoch_s = 0.0;       // one batched CausalTAD training epoch
};

// One row per kernel table the host supports, the native (best) table
// first as the score reference: ScoreBatch latency on `trips` plus one
// batched CausalTAD training epoch, both under the pinned table.
std::vector<IsaRow> MeasureIsaRows(
    const CityExperimentConfig& config, Scale scale, CausalTad* causal,
    const std::vector<causaltad::traj::Trip>& trips) {
  namespace kernels = causaltad::nn::kernels;
  const kernels::Isa native = kernels::ActiveIsa();
  std::vector<double> reference;
  std::vector<IsaRow> rows;
  const auto emit = [&](kernels::Isa isa) {
    kernels::SetIsa(isa);
    causal->RebuildServingCache();
    std::vector<double> scores;
    IsaRow row;
    row.city = config.name;
    row.isa = kernels::IsaName(isa);
    row.batched_us =
        BestOf(5, [&] { scores = causal->ScoreBatch(trips, {}); }) * 1e6 /
        trips.size();
    if (reference.empty()) {
      reference = scores;
    } else {
      for (size_t i = 0; i < scores.size(); ++i) {
        row.max_rel_diff = std::max(
            row.max_rel_diff, std::abs(scores[i] - reference[i]) /
                                  std::max(1.0, std::abs(reference[i])));
      }
    }
    row.epoch_s = MeasureTraining(config, "CausalTAD", scale).epoch_s;
    rows.push_back(row);
  };
  emit(native);  // reference: best ISA
  for (kernels::Isa isa : {kernels::Isa::kAvx512, kernels::Isa::kAvx2,
                           kernels::Isa::kBaseline}) {
    if (isa != native && kernels::Supported(isa)) emit(isa);
  }
  // Restore the native serving configuration.
  kernels::SetIsa(native);
  causal->RebuildServingCache();
  return rows;
}

void WriteJson(const std::string& path, Scale scale,
               const std::vector<TrainRow>& train_rows,
               const std::vector<BatchedRow>& rows,
               const std::vector<BucketRow>& bucket_rows,
               const std::vector<IsaRow>& isa_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"figure\": \"fig7\",\n  \"scale\": \"%s\",\n",
               causaltad::eval::ScaleName(scale));
  std::fprintf(f, "  \"units\": \"us_per_traj\",\n");
  std::fprintf(f, "  \"fig7a_training\": [\n");
  for (size_t i = 0; i < train_rows.size(); ++i) {
    const TrainRow& r = train_rows[i];
    std::fprintf(f,
                 "    {\"city\": \"%s\", \"method\": \"%s\", "
                 "\"trips\": %lld, \"batched_epoch_s\": %.3f, "
                 "\"batched_trips_per_s\": %.0f}%s\n",
                 r.city.c_str(), r.method.c_str(),
                 static_cast<long long>(r.trips), r.epoch_s, r.trips_per_s,
                 i + 1 < train_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"per_trip_vs_batched\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BatchedRow& r = rows[i];
    std::fprintf(f,
                 "    {\"city\": \"%s\", \"method\": \"%s\", "
                 "\"ratio\": %.1f, "
                 "\"per_trip_us\": %.2f, \"batched_us\": %.2f, "
                 "\"speedup\": %.2f, \"max_abs_diff\": %.3g}%s\n",
                 r.city.c_str(), r.method.c_str(), r.ratio, r.per_trip_us,
                 r.batched_us, r.speedup, r.max_abs_diff,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"fig7_bucketing\": [\n");
  for (size_t i = 0; i < bucket_rows.size(); ++i) {
    const BucketRow& r = bucket_rows[i];
    std::fprintf(f,
                 "    {\"city\": \"%s\", \"method\": \"%s\", "
                 "\"trips\": %lld, \"threads\": %d, "
                 "\"unbucketed_us\": %.2f, "
                 "\"bucketed_us\": %.2f, \"speedup\": %.2f, "
                 "\"max_abs_diff\": %.3g}%s\n",
                 r.city.c_str(), r.method.c_str(),
                 static_cast<long long>(r.trips), r.threads, r.unbucketed_us,
                 r.bucketed_us, r.speedup, r.max_abs_diff,
                 i + 1 < bucket_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"fig7_isa\": [\n");
  for (size_t i = 0; i < isa_rows.size(); ++i) {
    const IsaRow& r = isa_rows[i];
    std::fprintf(f,
                 "    {\"city\": \"%s\", \"method\": \"CausalTAD\", "
                 "\"isa\": \"%s\", \"batched_us\": %.2f, "
                 "\"max_rel_diff\": %.3g, \"epoch_s\": %.3f}%s\n",
                 r.city.c_str(), r.isa.c_str(), r.batched_us, r.max_rel_diff,
                 r.epoch_s, i + 1 < isa_rows.size() ? "," : "");
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

int main(int argc, char** argv) {
  const Scale scale = causaltad::eval::ScaleFromEnv();
  const std::vector<CityExperimentConfig> cities = {
      causaltad::eval::XianConfig(scale),
      causaltad::eval::ChengduConfig(scale)};

  // Part (a): the per-fraction table plus the batched minibatch training
  // throughput, both cities.
  std::vector<TrainRow> train_rows;
  if (!EnvFlag("CAUSALTAD_FIG7_SKIP_TRAIN_TABLE")) {
    for (const CityExperimentConfig& city : cities) {
      TrainingScalabilityTable(city, scale);
    }
    std::printf("== Fig. 7(a) — batched minibatch training, one epoch at "
                "100%% ==\n\n");
    TablePrinter train_table({"City", "Method", "epoch s", "trips/s"});
    train_table.PrintHeader();
    for (const CityExperimentConfig& city : cities) {
      for (const std::string& method :
           {std::string("SAE"), std::string("VSAE"), std::string("GM-VSAE"),
            std::string("DeepTEA"), std::string("CausalTAD")}) {
        train_rows.push_back(MeasureTraining(city, method, scale));
        const TrainRow& r = train_rows.back();
        train_table.PrintRow({r.city, r.method,
                              TablePrinter::Fmt(r.epoch_s, 3),
                              TablePrinter::Fmt(r.trips_per_s, 0)});
      }
    }
    std::printf("\n");
  }

  // Part (b), comparison 1: seed per-trip tape path vs batched no-grad fast
  // path, both cities, emitted as BENCH_fig7.json.
  std::printf("== Fig. 7(b) — per-trip tape path vs batched no-grad fast "
              "path (40 trips) ==\n\n");
  std::vector<BatchedRow> rows;
  std::vector<BucketRow> bucket_rows;
  std::vector<IsaRow> isa_rows;
  TablePrinter batched_table(
      {"City", "Method", "ratio", "tape us", "batched us", "speedup"});
  batched_table.PrintHeader();
  // The first city's (Xi'an's) fitted models are kept alive for the online
  // latency benchmarks below, so each model is fitted/loaded exactly once.
  std::unique_ptr<causaltad::models::TrajectoryScorer> xian_gmvsae;
  std::unique_ptr<causaltad::models::TrajectoryScorer> xian_causal;
  for (const CityExperimentConfig& city : cities) {
    const ExperimentData& data = DataFor(city);
    auto gmvsae =
        causaltad::eval::FitOrLoad("GM-VSAE", data, city.name, scale);
    auto causal = causaltad::eval::FitOrLoad(
        causaltad::eval::kCausalTadName, data, city.name, scale);
    const CausalTadVariant tg_only(dynamic_cast<CausalTad*>(causal.get()),
                                   ScoreVariant::kLikelihoodOnly);
    const auto batch_trips = Subsample(data.id_test, 40, 42);
    for (const double ratio : {0.2, 0.6, 1.0}) {
      for (const auto& [name, scorer] :
           std::vector<std::pair<std::string,
                                 const causaltad::models::TrajectoryScorer*>>{
               {"GM-VSAE", gmvsae.get()},
               {"TG-VAE", &tg_only},
               {"CausalTAD", causal.get()}}) {
        rows.push_back(
            MeasureBatched(city.name, name, scorer, batch_trips, ratio));
        const BatchedRow& r = rows.back();
        batched_table.PrintRow({r.city, r.method, TablePrinter::Fmt(r.ratio, 1),
                                TablePrinter::Fmt(r.per_trip_us, 1),
                                TablePrinter::Fmt(r.batched_us, 1),
                                TablePrinter::Fmt(r.speedup, 1) + "x"});
      }
    }
    // Length-bucketed ScoreBatch sharding A/B on a mixed-length batch.
    const auto bucket_trips = Subsample(data.id_test, 200, 43);
    for (const auto& [name, scorer] :
         std::vector<std::pair<std::string,
                               const causaltad::models::TrajectoryScorer*>>{
             {"GM-VSAE", gmvsae.get()}, {"CausalTAD", causal.get()}}) {
      bucket_rows.push_back(
          MeasureBucketing(city.name, name, scorer, bucket_trips));
    }
    // Kernel-substrate A/B: every supported table, on the same
    // mixed-length batch.
    for (IsaRow& row : MeasureIsaRows(
             city, scale, dynamic_cast<CausalTad*>(causal.get()),
             bucket_trips)) {
      isa_rows.push_back(std::move(row));
    }
    if (&city == &cities.front()) {
      xian_gmvsae = std::move(gmvsae);
      xian_causal = std::move(causal);
    }
  }
  std::printf("\n== Length-bucketed ScoreBatch sharding (full routes) ==\n\n");
  TablePrinter bucket_table(
      {"City", "Method", "flat us", "bucketed us", "speedup"});
  bucket_table.PrintHeader();
  for (const BucketRow& r : bucket_rows) {
    bucket_table.PrintRow({r.city, r.method,
                           TablePrinter::Fmt(r.unbucketed_us, 1),
                           TablePrinter::Fmt(r.bucketed_us, 1),
                           TablePrinter::Fmt(r.speedup, 2) + "x"});
  }
  std::printf("\n== Kernel substrate: ISA dispatch (full routes) ==\n\n");
  TablePrinter isa_table(
      {"City", "ISA", "batched us", "max rel diff", "epoch s"});
  isa_table.PrintHeader();
  for (const IsaRow& r : isa_rows) {
    isa_table.PrintRow({r.city, r.isa, TablePrinter::Fmt(r.batched_us, 1),
                        TablePrinter::Fmt(r.max_rel_diff, 6),
                        TablePrinter::Fmt(r.epoch_s, 3)});
  }
  std::printf("\n");
  const char* json_env = std::getenv("CAUSALTAD_BENCH_JSON");
  WriteJson(json_env != nullptr ? json_env : "BENCH_fig7.json", scale,
            train_rows, rows, bucket_rows, isa_rows);

  // Part (b), comparison 2: the paper's online-session latency protocol
  // (Xi'an; per-trajectory latency is a method property, not a city one).
  // The learned models are the ones already fitted for comparison 1.
  const CityExperimentConfig& xian = cities.front();
  const ExperimentData& xian_data = DataFor(xian);
  const auto iboat =
      causaltad::eval::FitOrLoad("iBOAT", xian_data, xian.name, scale);
  const CausalTadVariant tg_only(
      dynamic_cast<CausalTad*>(xian_causal.get()),
      ScoreVariant::kLikelihoodOnly);
  const auto online_trips = Subsample(xian_data.id_test, 40, 42);

  std::printf("\n== Fig. 7(b) — online inference runtime per trajectory "
              "(google-benchmark; us_per_traj counter) ==\n");
  double min_time = 0.0;
  if (const char* env = std::getenv("CAUSALTAD_BENCH_MIN_TIME")) {
    min_time = std::atof(env);
  }
  for (const double ratio : {0.2, 0.6, 1.0}) {
    const std::string suffix = "/ratio=" + TablePrinter::Fmt(ratio, 1);
    std::vector<benchmark::internal::Benchmark*> registered = {
        benchmark::RegisterBenchmark(
            ("iBOAT" + suffix).c_str(),
            [ratio, scorer = iboat.get(),
             &online_trips](benchmark::State& s) {
              OnlineInference(s, scorer, online_trips, ratio);
            }),
        benchmark::RegisterBenchmark(
            ("GM-VSAE" + suffix).c_str(),
            [ratio, scorer = xian_gmvsae.get(),
             &online_trips](benchmark::State& s) {
              OnlineInference(s, scorer, online_trips, ratio);
            }),
        benchmark::RegisterBenchmark(
            ("TG-VAE" + suffix).c_str(),
            [ratio, scorer = &tg_only, &online_trips](benchmark::State& s) {
              OnlineInference(s, scorer, online_trips, ratio);
            }),
        benchmark::RegisterBenchmark(
            ("CausalTAD" + suffix).c_str(),
            [ratio, scorer = xian_causal.get(),
             &online_trips](benchmark::State& s) {
              OnlineInference(s, scorer, online_trips, ratio);
            })};
    if (min_time > 0.0) {
      for (auto* b : registered) b->MinTime(min_time);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
