// perfbench: one run of one workload.
//
//   perfbench --workload online_direct|online_fleet --seed N --seconds S
//             --trace 0|1
//
// --trace 0 measures the end-to-end metrics: set-up (corpus build + Fit,
// kSetups times), the score_corpus phase and the untraced online ladder.
// --trace 1 is the separate traced run for the per-layer metrics. The last
// stdout line is the result JSON; progress goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "util/stopwatch.h"

namespace {

using perfbench::Result;

constexpr int kSetups = 3;
/// Shares of --seconds. Trace 0: score_corpus passes; the online ladder
/// legs get the rest. Trace 1: kernel probe, per-call core timings; the
/// untraced + traced nominal-rate legs get the rest.
constexpr double kScoreShare = 0.25;
constexpr double kTraceKernelShare = 0.15;
constexpr double kTraceScoreShare = 0.25;
constexpr int kPassesPerRound = 2;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload online_direct|online_fleet "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

/// Bitwise comparison of two fitted models' ScoreBatch outputs: Fit is
/// deterministic for a fixed seed, so every set-up must agree exactly.
bool SameModel(const perfbench::Setup& a, const perfbench::Setup& b) {
  std::vector<int64_t> lens;
  for (const auto& trip : a.test) lens.push_back(trip.route.size());
  return a.model->ScoreBatch(a.test, lens) == b.model->ScoreBatch(b.test, lens);
}

void TimedReference(perfbench::Setup& setup) {
  causaltad::util::Stopwatch watch;
  perfbench::FillReference(setup);
  std::fprintf(stderr, "parity reference: %.3f s\n", watch.ElapsedSeconds());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || (workload != "online_direct" &&
                        workload != "online_fleet") ||
      seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const bool fleet = workload == "online_fleet";

  std::printf("fingerprint: %s\n",
              perfbench::JsonObject(
                  perfbench::Fingerprint(static_cast<uint64_t>(seed)))
                  .c_str());
  std::fflush(stdout);

  Result result;
  const uint64_t run_seed = static_cast<uint64_t>(seed);
  if (trace == 0) {
    // kSetups rounds. Each sets up (corpus build + Fit, reported as a
    // median), then times a round of score_corpus passes and one leg of
    // online traffic at the nominal rate, so every measurement samples the
    // whole run rather than one stretch of it. The first set-up serves
    // every phase; the others must fit the same model.
    std::vector<double> setup_s;
    std::unique_ptr<perfbench::Setup> setup;
    std::unique_ptr<perfbench::ScoreBench> scoring;
    std::unique_ptr<perfbench::OnlineBench> online;
    const double pass_s =
        seconds * kScoreShare / (kSetups * kPassesPerRound * 2.0);
    for (int i = 0; i < kSetups; ++i) {
      auto fresh = perfbench::BuildSetup();
      setup_s.push_back(fresh->corpus_s + fresh->fit_s);
      std::fprintf(stderr, "setup %d: corpus %.3f s, fit %.3f s\n", i,
                   fresh->corpus_s, fresh->fit_s);
      ++result.attempted;
      if (setup == nullptr) {
        setup = std::move(fresh);
        TimedReference(*setup);
        scoring = std::make_unique<perfbench::ScoreBench>(*setup, run_seed);
        result.Merge(scoring->Check());
        online = std::make_unique<perfbench::OnlineBench>(*setup, fleet,
                                                          run_seed);
      } else if (!SameModel(*setup, *fresh)) {
        result.Fail(1, "Fit is not deterministic across set-ups");
      }
      fresh.reset();
      std::fprintf(stderr, "round %d: score_corpus passes, %s ladder leg\n",
                   i, workload.c_str());
      scoring->TimedRound(pass_s, kPassesPerRound);
      online->LadderLeg(seconds * (1.0 - kScoreShare) / kSetups);
    }
    result.Set("setup_s", perfbench::Median(setup_s), "s");
    result.Merge(scoring->Throughputs());
    result.Merge(online->Finish());
    result.Set("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  } else {
    auto setup = perfbench::BuildSetup();
    TimedReference(*setup);
    std::fprintf(stderr, "kernel probe\n");
    result.Merge(perfbench::RunKernelProbe(*setup, seconds * kTraceKernelShare));
    std::fprintf(stderr, "score_corpus per call\n");
    perfbench::ScoreBench scoring(*setup, run_seed);
    Result checked = scoring.Check();
    checked.metrics.clear();  // the AUCs are end-to-end metrics
    result.Merge(checked);
    const double score_s = seconds * kTraceScoreShare;
    scoring.TimedRound(score_s / 12.0, 2);
    result.Merge(scoring.PerCall(score_s / 2.0));
    result.Set("core.fit_s", setup->fit_s, "s");
    std::fprintf(stderr, "%s nominal rate, untraced then traced\n",
                 workload.c_str());
    perfbench::OnlineBench online(*setup, fleet, run_seed);
    result.Merge(online.Traced(seconds * (1.0 - kTraceKernelShare -
                                          kTraceScoreShare)));
  }

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  std::printf("failed_frac: %.6g (%lld of %lld)\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 1.0,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::printf("%s\n", result.Json().c_str());
  return 0;
}
