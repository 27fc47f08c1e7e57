// Set-up, the score_corpus phase (the three no-grad scoring paths) and the
// nn.kernels probe.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <span>
#include <string>

#include "bench.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "nn/kernels/kernels.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace perfbench {

using causaltad::traj::Trip;
using causaltad::util::Stopwatch;

namespace {

constexpr causaltad::eval::Scale kScale = causaltad::eval::Scale::kDefault;
constexpr double kRatios[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                              0.6, 0.7, 0.8, 0.9, 1.0};

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed pass: repeats `call` until `pass_seconds` have elapsed and
/// returns the seconds per call.
template <typename Fn>
double SecondsPerCall(double pass_seconds, Fn&& call) {
  Stopwatch watch;
  int64_t calls = 0;
  do {
    call();
    ++calls;
  } while (watch.ElapsedSeconds() < pass_seconds);
  return watch.ElapsedSeconds() / static_cast<double>(calls);
}

std::vector<int64_t> RatioCheckpoints(int64_t n) {
  std::vector<int64_t> out;
  for (const double ratio : kRatios) {
    const int64_t prefix = static_cast<int64_t>(std::ceil(ratio * n));
    out.push_back(std::max<int64_t>(1, std::min(prefix, n)));
  }
  return out;
}

double Auc(const Setup& setup, const std::vector<double>& scores,
           bool ood_split) {
  std::vector<double> picked;
  std::vector<uint8_t> labels;
  for (size_t i = 0; i < setup.test.size(); ++i) {
    if ((setup.ood[i] != 0) != ood_split) continue;
    picked.push_back(scores[i]);
    labels.push_back(setup.anomaly[i]);
  }
  return causaltad::eval::RocAuc(picked, labels);
}

}  // namespace

std::unique_ptr<Setup> BuildSetup() {
  auto setup = std::make_unique<Setup>();
  Stopwatch corpus_watch;
  setup->data = causaltad::eval::BuildExperiment(
      causaltad::eval::XianConfig(kScale));
  setup->corpus_s = corpus_watch.ElapsedSeconds();

  const causaltad::eval::ExperimentData& d = setup->data;
  const std::vector<Trip>* sets[] = {&d.id_test,   &d.ood_test,
                                     &d.id_detour, &d.id_switch,
                                     &d.ood_detour, &d.ood_switch};
  for (int s = 0; s < 6; ++s) {
    for (const Trip& trip : *sets[s]) {
      setup->test.push_back(trip);
      setup->anomaly.push_back(s >= 2 ? 1 : 0);
      setup->ood.push_back(s == 1 || s >= 4 ? 1 : 0);
      setup->test_points += trip.route.size();
    }
  }

  Stopwatch fit_watch;
  setup->scorer = causaltad::eval::MakeScorer("CausalTAD", d, kScale);
  const causaltad::models::FitOptions options =
      causaltad::eval::FitOptionsFor(kScale);
  setup->scorer->Fit(d.train, options);
  setup->fit_s = fit_watch.ElapsedSeconds();
  setup->model =
      dynamic_cast<const causaltad::core::CausalTad*>(setup->scorer.get());
  return setup;
}

void FillReference(Setup& setup) {
  setup.reference.assign(setup.test.size(), {});
  // Workers claim trips one at a time: trip lengths (and so Score costs)
  // vary by an order of magnitude.
  const int64_t workers = causaltad::util::ParallelThreads();
  std::atomic<size_t> next{0};
  causaltad::util::ParallelFor(workers, workers, [&](int64_t, int64_t) {
    for (size_t i = next++; i < setup.test.size(); i = next++) {
      const Trip& trip = setup.test[i];
      for (int64_t k = 1; k <= trip.route.size(); ++k) {
        setup.reference[i].push_back(setup.model->Score(trip, k));
      }
    }
  });
}

ScoreBench::ScoreBench(const Setup& setup, uint64_t seed) : setup_(setup) {
  // The seed permutes the order the corpus is presented in; the set of
  // trips (and so the AUCs) is the whole test split on every seed.
  order_.resize(setup.test.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order_.begin(), order_.end(), rng);
  for (size_t i : order_) {
    trips_.push_back(setup.test[i]);
    full_lens_.push_back(setup.test[i].route.size());
    checkpoints_.push_back(RatioCheckpoints(setup.test[i].route.size()));
  }
}

Result ScoreBench::Check() const {
  Result result;
  const causaltad::core::CausalTad& model = *setup_.model;
  auto ref = [&](size_t pos, int64_t k) {
    return setup_.reference[order_[pos]][k - 1];
  };
  const std::vector<double> batch = model.ScoreBatch(trips_, full_lens_);
  for (size_t i = 0; i < trips_.size(); ++i) {
    ++result.attempted;
    if (!WithinParity(batch[i], ref(i, full_lens_[i]))) {
      result.Fail(1, "ScoreBatch parity, trip " + std::to_string(order_[i]));
    }
  }
  const auto swept = model.ScoreCheckpoints(trips_, checkpoints_);
  for (size_t i = 0; i < trips_.size(); ++i) {
    for (size_t r = 0; r < checkpoints_[i].size(); ++r) {
      ++result.attempted;
      if (r >= swept[i].size() ||
          !WithinParity(swept[i][r], ref(i, checkpoints_[i][r]))) {
        result.Fail(1, "ScoreCheckpoints parity, trip " +
                           std::to_string(order_[i]));
      }
    }
  }
  for (size_t i = 0; i < trips_.size(); ++i) {
    auto session = model.BeginTrip(trips_[i]);
    const auto& segments = trips_[i].route.segments;
    for (size_t k = 0; k < segments.size(); ++k) {
      ++result.attempted;
      if (!WithinParity(session->Update(segments[k]), ref(i, k + 1))) {
        result.Fail(1, "session parity, trip " + std::to_string(order_[i]));
      }
    }
  }

  // Detection quality of the fitted model on the paper's two settings;
  // the ID bar is integration_test's.
  std::vector<double> by_index(trips_.size());
  for (size_t i = 0; i < trips_.size(); ++i) by_index[order_[i]] = batch[i];
  const double auc_id = Auc(setup_, by_index, /*ood_split=*/false);
  ++result.attempted;
  if (!(auc_id > 0.55)) {
    result.Fail(1, "ID ROC-AUC " + std::to_string(auc_id) + " <= 0.55");
  }
  result.Set("roc_auc.id", auc_id, "auc");
  result.Set("roc_auc.ood", Auc(setup_, by_index, /*ood_split=*/true), "auc");
  return result;
}

void ScoreBench::TimedRound(double pass_seconds, int passes) {
  const causaltad::core::CausalTad& model = *setup_.model;
  if (batch_s_.empty()) {  // warm caches and lazily built state
    (void)model.ScoreBatch(trips_, full_lens_);
    (void)model.ScoreCheckpoints(trips_, checkpoints_);
  }
  for (int p = 0; p < passes; ++p) {
    batch_s_.push_back(SecondsPerCall(pass_seconds, [&] {
      (void)model.ScoreBatch(trips_, full_lens_);
    }));
    sweep_s_.push_back(SecondsPerCall(pass_seconds, [&] {
      (void)model.ScoreCheckpoints(trips_, checkpoints_);
    }));
  }
}

Result ScoreBench::Throughputs() const {
  Result result;
  const double n_trips = static_cast<double>(trips_.size());
  result.Set("score_trips_per_s", n_trips / Median(batch_s_), "trips/s");
  result.Set("sweep_trips_per_s", n_trips / Median(sweep_s_), "trips/s");
  return result;
}

Result ScoreBench::PerCall(double seconds) const {
  // Every BeginTrip and Update is timed on its own, single-threaded.
  std::vector<double> begin_us;
  std::vector<double> update_us;
  Stopwatch watch;
  double sink = 0.0;
  do {
    for (const Trip& trip : trips_) {
      double t0 = NowNs();
      auto session = setup_.model->BeginTrip(trip);
      double t1 = NowNs();
      begin_us.push_back((t1 - t0) * 1e-3);
      for (const auto segment : trip.route.segments) {
        sink += session->Update(segment);
        t0 = t1;
        t1 = NowNs();
        update_us.push_back((t1 - t0) * 1e-3);
      }
    }
  } while (watch.ElapsedSeconds() < seconds);
  volatile double keep = sink;
  (void)keep;
  const double n_trips = static_cast<double>(trips_.size());
  Result result;
  result.Set("core.score_batch_us_per_trip", 1e6 * Median(batch_s_) / n_trips,
             "us");
  result.Set("core.checkpoints_us_per_trip", 1e6 * Median(sweep_s_) / n_trips,
             "us");
  result.Set("core.begin_trip_us.p50", Quantile(begin_us, 0.5), "us");
  result.Set("core.begin_trip_us.p99", Quantile(begin_us, 0.99), "us");
  result.Set("core.update_us.p50", Quantile(update_us, 0.5), "us");
  result.Set("core.update_us.p99", Quantile(update_us, 0.99), "us");
  return result;
}

Result RunKernelProbe(const Setup& setup, double seconds) {
  namespace kernels = causaltad::nn::kernels;
  const kernels::Kernels& k = kernels::Active();
  // Default-scale model shapes: batch rows B, GRU hidden H (three gates),
  // embedding width E, output vocabulary V.
  constexpr int64_t B = 64, H = 48, E = 32, G = 3 * H;
  const int64_t V = setup.data.vocab();

  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  auto filled = [&](int64_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = dist(rng);
    return v;
  };
  std::vector<float> a = filled(B * H), w = filled(H * G), out(B * G);
  std::vector<float> g = filled(B * G), dw(H * G);
  std::vector<float> h = filled(B * H), bz = filled(H), br = filled(H),
                     bh = filled(H);
  std::vector<float> z = filled(B * H), r = filled(B * H), rh(B * H),
                     c = filled(B * H), blend(B * H);
  std::vector<float> logits = filled(V), table = filled(V * E),
                     gathered(B * E);
  std::vector<int32_t> ids(B);
  for (int64_t i = 0; i < B; ++i) ids[i] = static_cast<int32_t>((i * 37) % V);

  struct Probe {
    const char* name;
    double flops;  // arithmetic operations per call, from the shapes
    double bytes;  // bytes read + written per call, from the shapes
    std::function<void()> call;
  };
  const double f = sizeof(float);
  volatile float nll_sink = 0.0f;
  const std::vector<Probe> probes = {
      {"matmul_packed", 2.0 * B * H * G, f * (B * H + H * G + B * G),
       [&] {
         k.matmul_packed(a.data(), w.data(), out.data(), B, H, G, false,
                         false);
       }},
      {"gru_gates_zr", 5.0 * B * H, f * (5 * B * H + 2 * H),
       [&] {
         // z and r are updated in place; repeated sigmoids stay in (0, 1).
         k.gru_gates_zr(h.data(), bz.data(), br.data(), z.data(), r.data(),
                        rh.data(), B, H);
       }},
      {"gru_out_blend", 5.0 * B * H, f * (5 * B * H + H),
       [&] {
         k.gru_out_blend(h.data(), bh.data(), z.data(), c.data(),
                         blend.data(), nullptr, B, H);
       }},
      {"softmax_nll_row", 4.0 * V, f * V,
       [&] { nll_sink = k.softmax_nll_row(logits.data(), V, V / 2); }},
      {"gather_rows_f32", 0.0, f * 2 * B * E + sizeof(int32_t) * B,
       [&] {
         k.gather_rows_f32(table.data(), E, ids.data(), B, gathered.data());
       }},
      {"add_matmul_transposed_a", 2.0 * B * H * G,
       f * (B * H + B * G + 2 * H * G),
       [&] {
         k.add_matmul_transposed_a(a.data(), g.data(), dw.data(), B, H, G);
       }},
  };

  Result result;
  const double per_probe_s = seconds / static_cast<double>(probes.size());
  for (const Probe& probe : probes) {
    // Batches of 64 calls; the median batch gives ns per call.
    constexpr int kCallsPerSample = 64;
    for (int i = 0; i < kCallsPerSample; ++i) probe.call();
    std::vector<double> samples;
    Stopwatch watch;
    do {
      const double t0 = NowNs();
      for (int i = 0; i < kCallsPerSample; ++i) probe.call();
      samples.push_back((NowNs() - t0) / kCallsPerSample);
    } while (watch.ElapsedSeconds() < per_probe_s);
    const std::string base = std::string("nn.kernels.") + probe.name;
    result.Set(base + "_ns", Median(samples), "ns");
    result.Set(base + "_flops", probe.flops, "flop");
    result.Set(base + "_bytes", probe.bytes, "bytes");
  }
  (void)nll_sink;
  return result;
}

}  // namespace perfbench
