// Streaming parity and serving-engine tests: every method's incremental
// OnlineScorer must reproduce Score(trip, k) for every prefix k (the
// contract in models/scorer.h), on both the fused incremental path and the
// forced rescoring reference path; serve::StreamingBatcher must reproduce
// the same scores under interleaved trip starts/ends, bursts, out-of-order
// completion, deadline admission, and row compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "serve/streaming.h"

namespace causaltad {
namespace {

using core::CausalTad;
using core::CausalTadVariant;
using core::ScoreVariant;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using models::TrajectoryScorer;
using serve::StreamingBatcher;
using serve::StreamingOptions;
using serve::StreamingSession;

const ExperimentData& Data() {
  static const ExperimentData* data =
      new ExperimentData(BuildExperiment(XianConfig(Scale::kSmoke)));
  return *data;
}

/// One fitted scorer per method, shared across tests (fitting dominates
/// this binary's runtime).
TrajectoryScorer* Fitted(const std::string& name) {
  static std::map<std::string, std::unique_ptr<TrajectoryScorer>>* cache =
      new std::map<std::string, std::unique_ptr<TrajectoryScorer>>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    auto scorer = eval::MakeScorer(name, Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 2;
    options.lr = 3e-3f;
    options.seed = 17;
    scorer->Fit(Data().train, options);
    it = cache->emplace(name, std::move(scorer)).first;
  }
  return it->second.get();
}

const CausalTad* FittedCausal() {
  return dynamic_cast<const CausalTad*>(Fitted("CausalTAD"));
}

/// Parity tolerance: scores are float32 sums over the prefix, so "within
/// 1e-6" has to be read relative to the score's magnitude (one ULP of a
/// float at 50.0 is already ~4e-6).
double Tol(double reference, double rel = 1e-6) {
  return rel * std::max(1.0, std::abs(reference));
}

std::vector<traj::Trip> ParityTrips() {
  std::vector<traj::Trip> trips = eval::Subsample(Data().id_test, 4, 7);
  const auto detours = eval::Subsample(Data().id_detour, 2, 8);
  trips.insert(trips.end(), detours.begin(), detours.end());
  return trips;
}

/// `rescoring` drives the base class's rescoring reference session instead
/// of the scorer's own incremental one.
void ExpectOnlineParity(const TrajectoryScorer& scorer, double rel_tol,
                        bool rescoring = false) {
  for (const traj::Trip& trip : ParityTrips()) {
    auto session = rescoring ? scorer.models::TrajectoryScorer::BeginTrip(trip)
                             : scorer.BeginTrip(trip);
    for (int64_t k = 1; k <= trip.route.size(); ++k) {
      const double incremental =
          session->Update(trip.route.segments[k - 1]);
      const double reference = scorer.Score(trip, k);
      EXPECT_NEAR(incremental, reference, Tol(reference, rel_tol))
          << scorer.Name() << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-method incremental parity (and the rescoring reference path).
// ---------------------------------------------------------------------------

class StreamingParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamingParityTest, UpdateMatchesScoreAtEveryPrefix) {
  ExpectOnlineParity(*Fitted(GetParam()), 1e-6);
}

TEST_P(StreamingParityTest, RescoringReferencePathMatchesToo) {
  ExpectOnlineParity(*Fitted(GetParam()), 1e-9, /*rescoring=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, StreamingParityTest,
                         ::testing::Values("iBOAT", "SAE", "VSAE", "BetaVAE",
                                           "FactorVAE", "GM-VSAE", "DeepTEA",
                                           "CausalTAD"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

TEST(StreamingVariantTest, AblationSessionsMatchVariantScores) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  for (const ScoreVariant variant :
       {ScoreVariant::kLikelihoodOnly, ScoreVariant::kScalingOnly}) {
    const CausalTadVariant view(causal, variant);
    ExpectOnlineParity(view, 1e-6);
  }
}

TEST(StreamingCheckpointTest, ScoreCheckpointsMatchesScore) {
  // Both the flattened base implementation (GM-VSAE) and CausalTad's
  // one-roll override.
  for (const char* name : {"GM-VSAE", "CausalTAD"}) {
    const TrajectoryScorer* scorer = Fitted(name);
    const auto trips = ParityTrips();
    std::vector<std::vector<int64_t>> checkpoints(trips.size());
    for (size_t i = 0; i < trips.size(); ++i) {
      const int64_t n = trips[i].route.size();
      checkpoints[i] = {1, std::max<int64_t>(1, n / 2), n, -1};
    }
    const auto scores = scorer->ScoreCheckpoints(trips, checkpoints);
    for (size_t i = 0; i < trips.size(); ++i) {
      ASSERT_EQ(scores[i].size(), checkpoints[i].size());
      for (size_t j = 0; j < checkpoints[i].size(); ++j) {
        const double reference = scorer->Score(trips[i], checkpoints[i][j]);
        EXPECT_NEAR(scores[i][j], reference, Tol(reference))
            << name << " trip=" << i << " k=" << checkpoints[i][j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One no-grad scorer: the batcher, the BeginTrip sessions and
// ScoreCheckpoints all run TgVae::EncodeSdBatch + TgVae::StepNllRows.
// ---------------------------------------------------------------------------

/// Each trip is scored alone on all three paths: the batched kernels' row
/// blocking makes a row's bits depend on which rows advance with it, so
/// single-trip batches are where one code path must show as equal bits.
void ExpectSameBits(const CausalTad& model, ScoreVariant variant) {
  const double lambda = model.lambda();
  for (const traj::Trip& trip : ParityTrips()) {
    const int64_t n = trip.route.size();
    std::vector<int64_t> prefixes(n);
    for (int64_t k = 0; k < n; ++k) prefixes[k] = k + 1;
    const std::vector<double> swept =
        model.ScoreCheckpointsVariantLambda(
            std::span<const traj::Trip>(&trip, 1),
            std::span<const std::vector<int64_t>>(&prefixes, 1), variant,
            lambda)[0];
    StreamingBatcher batcher(&model, variant, lambda);
    StreamingSession streamed = batcher.Begin(trip);
    auto session = model.BeginTripVariant(trip, variant, lambda);
    for (int64_t k = 1; k <= n; ++k) {
      const double online = session->Update(trip.route.segments[k - 1]);
      streamed.Push(trip.route.segments[k - 1]);
      batcher.Flush();
      const std::vector<double> emitted = streamed.Poll();
      ASSERT_EQ(emitted.size(), 1u);
      EXPECT_EQ(emitted[0], swept[k - 1])
          << ScoreVariantName(variant) << " batcher k=" << k;
      EXPECT_EQ(online, swept[k - 1])
          << ScoreVariantName(variant) << " session k=" << k;
    }
    streamed.End();
  }
}

TEST(OneScorerTest, BatcherSessionsAndCheckpointsAgreeBitForBit) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  core::CausalTadConfig config;
  config.tg.emb_dim = 12;
  config.tg.hidden_dim = 16;
  config.tg.latent_dim = 8;
  config.tg.road_constrained = false;
  config.rp.emb_dim = 8;
  config.rp.hidden_dim = 16;
  config.rp.latent_dim = 4;
  CausalTad unconstrained(&Data().city.network, config);
  models::FitOptions options;
  options.epochs = 1;
  options.lr = 3e-3f;
  options.seed = 13;
  unconstrained.Fit(eval::Subsample(Data().train, 48, 6), options);
  const CausalTad* models[] = {causal, &unconstrained};
  for (const CausalTad* model : models) {
    for (const ScoreVariant variant :
         {ScoreVariant::kFull, ScoreVariant::kLikelihoodOnly}) {
      ExpectSameBits(*model, variant);
    }
  }
}

// ---------------------------------------------------------------------------
// StreamingBatcher: shared-state serving engine.
// ---------------------------------------------------------------------------

TEST(StreamingBatcherTest, InterleavedTripsMatchPerTripScores) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  StreamingBatcher batcher(causal);

  // Interleave: all trips start, points round-robin one at a time, trips
  // end as soon as their route is exhausted (shorter trips complete first —
  // out-of-order completion), stepping intermittently.
  std::vector<StreamingSession> sessions;
  for (const auto& trip : trips) sessions.push_back(batcher.Begin(trip));
  std::vector<int64_t> fed(trips.size(), 0);
  bool progress = true;
  int tick = 0;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < trips.size(); ++i) {
      if (fed[i] < trips[i].route.size()) {
        sessions[i].Push(trips[i].route.segments[fed[i]]);
        if (++fed[i] == trips[i].route.size()) sessions[i].End();
        progress = true;
      }
    }
    if (++tick % 3 == 0) batcher.Step();
  }
  batcher.Flush();
  EXPECT_EQ(batcher.queued_points(), 0);
  EXPECT_EQ(batcher.active_rows(), 0);  // every trip ended -> rows released

  for (size_t i = 0; i < trips.size(); ++i) {
    const std::vector<double> scores = sessions[i].Poll();
    ASSERT_EQ(static_cast<int64_t>(scores.size()), trips[i].route.size());
    for (size_t k = 0; k < scores.size(); ++k) {
      const double reference =
          causal->Score(trips[i], static_cast<int64_t>(k) + 1);
      EXPECT_NEAR(scores[k], reference, Tol(reference))
          << "trip=" << i << " k=" << k + 1;
    }
  }
}

TEST(StreamingBatcherTest, BurstsDrainInFeedOrderOnePointPerStep) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 3);
  StreamingBatcher batcher(causal);
  StreamingSession burst = batcher.Begin(trip);
  StreamingSession other = batcher.Begin(trips[1]);
  for (int k = 0; k < 3; ++k) burst.Push(trip.route.segments[k]);
  other.Push(trips[1].route.segments[0]);

  // One step advances each session by at most one point.
  EXPECT_EQ(batcher.Step(), 2);
  EXPECT_EQ(batcher.queued_points(), 2);
  EXPECT_EQ(batcher.Step(), 1);
  EXPECT_EQ(batcher.Step(), 1);
  EXPECT_EQ(batcher.Step(), 0);

  const std::vector<double> scores = burst.Poll();
  ASSERT_EQ(scores.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    const double reference = causal->Score(trip, k + 1);
    EXPECT_NEAR(scores[k], reference, Tol(reference));
  }
}

TEST(StreamingBatcherTest, VariantEnginesMatchVariantScores) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  for (const ScoreVariant variant :
       {ScoreVariant::kLikelihoodOnly, ScoreVariant::kScalingOnly}) {
    StreamingBatcher batcher(causal, variant, causal->lambda());
    std::vector<StreamingSession> sessions;
    for (const auto& trip : trips) sessions.push_back(batcher.Begin(trip));
    for (size_t i = 0; i < trips.size(); ++i) {
      for (const auto segment : trips[i].route.segments) {
        sessions[i].Push(segment);
      }
      sessions[i].End();
    }
    batcher.Flush();
    const CausalTadVariant view(causal, variant);
    for (size_t i = 0; i < trips.size(); ++i) {
      const std::vector<double> scores = sessions[i].Poll();
      ASSERT_EQ(static_cast<int64_t>(scores.size()), trips[i].route.size());
      for (size_t k = 0; k < scores.size(); ++k) {
        const double reference =
            view.Score(trips[i], static_cast<int64_t>(k) + 1);
        EXPECT_NEAR(scores[k], reference, Tol(reference))
            << "variant=" << view.Name() << " trip=" << i << " k=" << k + 1;
      }
    }
  }
}

TEST(StreamingBatcherTest, DeadlineBoundedAdmission) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  double now_ms = 0.0;
  StreamingOptions options;
  options.max_batch_rows = 4;
  options.max_delay_ms = 5.0;
  options.now_ms = [&now_ms] { return now_ms; };
  StreamingBatcher batcher(causal, options);

  // Two queued sessions: below the batch size and inside the deadline, so
  // nothing fires until the clock passes max_delay_ms.
  StreamingSession a = batcher.Begin(trips[0]);
  StreamingSession b = batcher.Begin(trips[1]);
  a.Push(trips[0].route.segments[0]);
  b.Push(trips[1].route.segments[0]);
  EXPECT_EQ(batcher.StepIfReady(), 0);
  now_ms = 4.9;
  EXPECT_EQ(batcher.StepIfReady(), 0);
  now_ms = 5.1;
  EXPECT_EQ(batcher.StepIfReady(), 2);

  // A full batch fires immediately, deadline not yet reached.
  std::vector<StreamingSession> more;
  for (int i = 0; i < 4; ++i) {
    more.push_back(batcher.Begin(trips[i + 2 < static_cast<int>(trips.size())
                                           ? i + 2
                                           : i % trips.size()]));
    more.back().Push(trips[0].route.segments[0]);
  }
  EXPECT_EQ(batcher.StepIfReady(), 4);
}

TEST(StreamingBatcherTest, BurstDeadlineCarriesOriginalEnqueueTime) {
  // Regression: a re-queued session used to get a fresh ready_since_
  // timestamp, so the tail of a k-point burst waited ~k·max_delay_ms. The
  // re-queue must carry the oldest pending point's original enqueue time:
  // once the burst is past the deadline, every remaining point drains on
  // consecutive StepIfReady calls without the clock advancing further.
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 4);
  double now_ms = 0.0;
  StreamingOptions options;
  options.max_batch_rows = 64;
  options.max_delay_ms = 5.0;
  options.now_ms = [&now_ms] { return now_ms; };
  StreamingBatcher batcher(causal, options);

  StreamingSession session = batcher.Begin(trip);
  for (int k = 0; k < 4; ++k) session.Push(trip.route.segments[k]);
  EXPECT_EQ(batcher.StepIfReady(), 0);  // inside the deadline
  now_ms = 5.1;
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(batcher.StepIfReady(), 1) << "burst point " << k;
  }
  EXPECT_EQ(batcher.queued_points(), 0);

  // Wait-bound sweep: points arrive 1 ms apart, a pump ticks the clock in
  // 1 ms steps draining everything due; no point may be scored later than
  // max_delay_ms after its own enqueue time.
  StreamingSession sweep = batcher.Begin(trip);
  std::vector<double> pushed_at;
  size_t scored = 0;
  double max_wait = 0.0;
  const int64_t n = std::min<int64_t>(6, trip.route.size());
  for (int tick = 0; tick <= 20; ++tick) {
    now_ms = 5.1 + tick;
    if (static_cast<int64_t>(pushed_at.size()) < n) {
      sweep.Push(trip.route.segments[pushed_at.size()]);
      pushed_at.push_back(now_ms);
    }
    while (batcher.StepIfReady() > 0) {
    }
    const size_t total = scored + sweep.Poll().size();
    for (; scored < total; ++scored) {
      max_wait = std::max(max_wait, now_ms - pushed_at[scored]);
    }
    if (scored == static_cast<size_t>(n) &&
        static_cast<int64_t>(pushed_at.size()) == n) {
      break;
    }
  }
  EXPECT_EQ(scored, static_cast<size_t>(n));
  EXPECT_LE(max_wait, options.max_delay_ms + 1e-9);
}

TEST(StreamingBatcherTest, DeadlineSeesCarriedTimestampBehindFifoFront) {
  // A re-queued burst session sits at the BACK of the FIFO with an OLDER
  // carried timestamp, so ready_since_ is not monotone: the deadline must
  // watch the true minimum, not the FIFO front. Scenario: A pushes 2
  // points at t=0; B, C, D push one each at t=4.9; the batch-full fire
  // admits A, B, C and re-queues A behind D carrying t=0. At t=5.1 A's
  // second point is past the deadline even though the front (D, t=4.9) is
  // not — the step must fire.
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  ASSERT_GE(trips.size(), 4u);
  double now_ms = 0.0;
  StreamingOptions options;
  options.max_batch_rows = 3;
  options.max_delay_ms = 5.0;
  options.now_ms = [&now_ms] { return now_ms; };
  StreamingBatcher batcher(causal, options);

  StreamingSession a = batcher.Begin(trips[0]);
  a.Push(trips[0].route.segments[0]);
  a.Push(trips[0].route.segments[1]);
  now_ms = 4.9;
  StreamingSession b = batcher.Begin(trips[1]);
  StreamingSession c = batcher.Begin(trips[2]);
  StreamingSession d = batcher.Begin(trips[3]);
  b.Push(trips[1].route.segments[0]);
  c.Push(trips[2].route.segments[0]);
  d.Push(trips[3].route.segments[0]);
  EXPECT_EQ(batcher.StepIfReady(), 3);  // batch full: admits a, b, c
  now_ms = 5.1;
  EXPECT_EQ(batcher.StepIfReady(), 2);  // d AND a's carried t=0 point
  EXPECT_EQ(batcher.queued_points(), 0);
}

TEST(StreamingBatcherTest, EndedDrainedSessionsAreForgotten) {
  // Regression: an ended, fully-drained, fully-polled session was only
  // forgotten via a LATER Poll(), so fire-and-forget callers grew
  // sessions_ without bound.
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  StreamingBatcher batcher(causal);

  for (int i = 0; i < 32; ++i) {
    StreamingSession session = batcher.Begin(trip);
    session.Push(trip.route.segments[0]);
    batcher.Flush();
    EXPECT_EQ(session.Poll().size(), 1u);
    session.End();  // nothing pending, nothing unpolled: forget NOW
  }
  EXPECT_EQ(batcher.tracked_sessions(), 0);

  // End before the final Poll: kept while scores are unpolled, forgotten
  // by the Poll that drains them.
  StreamingSession session = batcher.Begin(trip);
  session.Push(trip.route.segments[0]);
  session.End();
  batcher.Flush();
  EXPECT_EQ(batcher.tracked_sessions(), 1);
  EXPECT_EQ(session.Poll().size(), 1u);
  EXPECT_EQ(batcher.tracked_sessions(), 0);
}

TEST(StreamingBatcherTest, SdCacheInvalidatesOnRefitUnderLiveBatcher) {
  // Regression: after a re-Fit()/Load() the batcher kept serving cached
  // h0/base pairs encoded under the old weights. New sessions must adopt
  // the refreshed serving tables and match the refitted model's scores.
  const ExperimentData& data = Data();
  core::CausalTadConfig config;
  config.tg.emb_dim = 12;
  config.tg.hidden_dim = 16;
  config.tg.latent_dim = 8;
  config.rp.emb_dim = 8;
  config.rp.hidden_dim = 16;
  config.rp.latent_dim = 4;
  core::CausalTad model(&data.city.network, config);
  const auto train = eval::Subsample(data.train, 48, 5);
  models::FitOptions options;
  options.epochs = 1;
  options.lr = 3e-3f;
  options.seed = 11;
  model.Fit(train, options);

  StreamingBatcher batcher(&model);
  const traj::Trip& trip = data.id_test[0];
  {
    // Prime the SD cache under the first weights.
    StreamingSession session = batcher.Begin(trip);
    session.Push(trip.route.segments[0]);
    session.End();
    batcher.Flush();
    session.Poll();
  }

  options.seed = 12;  // different init -> different weights
  model.Fit(train, options);

  StreamingSession session = batcher.Begin(trip);
  for (const auto segment : trip.route.segments) session.Push(segment);
  session.End();
  batcher.Flush();
  const std::vector<double> scores = session.Poll();
  ASSERT_EQ(static_cast<int64_t>(scores.size()), trip.route.size());
  for (size_t k = 0; k < scores.size(); ++k) {
    const double reference = model.Score(trip, static_cast<int64_t>(k) + 1);
    EXPECT_NEAR(scores[k], reference, Tol(reference)) << "k=" << k + 1;
  }
}

TEST(StreamingBatcherTest, RowsRecycleAndCompactOnTripEnd) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  StreamingBatcher batcher(causal);

  std::vector<StreamingSession> sessions;
  for (int i = 0; i < 200; ++i) sessions.push_back(batcher.Begin(trip));
  EXPECT_EQ(batcher.active_rows(), 200);
  EXPECT_GE(batcher.capacity_rows(), 200);
  const int64_t high_water = batcher.capacity_rows();

  for (auto& session : sessions) {
    session.Push(trip.route.segments[0]);
  }
  batcher.Flush();
  for (auto& session : sessions) session.End();
  EXPECT_EQ(batcher.active_rows(), 0);
  // Row compaction gave the high-water capacity back.
  EXPECT_LT(batcher.capacity_rows(), high_water);
  EXPECT_LE(batcher.capacity_rows(), 64);

  // Rows are recycled: new sessions fit in the compacted matrix and still
  // score correctly.
  StreamingSession fresh = batcher.Begin(trip);
  fresh.Push(trip.route.segments[0]);
  fresh.Push(trip.route.segments[1]);
  batcher.Flush();
  const std::vector<double> scores = fresh.Poll();
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_NEAR(scores[1], causal->Score(trip, 2),
              Tol(causal->Score(trip, 2)));
}

TEST(StreamingBatcherTest, EightProducerSoakMatchesReference) {
  // The Step lock split runs the fused kernels outside the batcher mutex:
  // 8 producer threads push/end/poll their own sessions while two stepper
  // threads drive Step() concurrently. Every session must receive exactly
  // one score per pushed point, in order, matching Score(trip, k) — no
  // loss, duplication, or cross-session corruption under contention.
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  std::vector<traj::Trip> pool = eval::Subsample(Data().id_test, 8, 13);
  const auto detours = eval::Subsample(Data().id_detour, 4, 14);
  pool.insert(pool.end(), detours.begin(), detours.end());

  StreamingOptions options;
  options.max_batch_rows = 8;  // forces many partial, contended batches
  StreamingBatcher batcher(causal, options);

  constexpr int kProducers = 8;
  constexpr int kTripsPerProducer = 3;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);

  std::atomic<bool> done{false};
  std::atomic<bool> timed_out{false};
  std::vector<std::thread> steppers;
  for (int s = 0; s < 2; ++s) {
    steppers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (batcher.Step() == 0) std::this_thread::yield();
      }
      batcher.Flush();
    });
  }

  // results[p][t] = scores for producer p's t-th trip.
  std::vector<std::vector<std::vector<double>>> results(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      results[p].resize(kTripsPerProducer);
      for (int t = 0; t < kTripsPerProducer; ++t) {
        const traj::Trip& trip =
            pool[(p * kTripsPerProducer + t) % pool.size()];
        StreamingSession session = batcher.Begin(trip);
        for (int64_t k = 0; k < trip.route.size(); ++k) {
          session.Push(trip.route.segments[k]);
          if ((k & 3) == 0) std::this_thread::yield();
        }
        session.End();
        std::vector<double>& out = results[p][t];
        while (static_cast<int64_t>(out.size()) < trip.route.size()) {
          const std::vector<double> scores = session.Poll();
          out.insert(out.end(), scores.begin(), scores.end());
          if (scores.empty()) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out.store(true);
              return;
            }
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : steppers) t.join();

  ASSERT_FALSE(timed_out.load()) << "scores never drained within 120s";
  EXPECT_EQ(batcher.tracked_sessions(), 0);
  EXPECT_EQ(batcher.active_rows(), 0);
  for (int p = 0; p < kProducers; ++p) {
    for (int t = 0; t < kTripsPerProducer; ++t) {
      const traj::Trip& trip =
          pool[(p * kTripsPerProducer + t) % pool.size()];
      const std::vector<double>& scores = results[p][t];
      ASSERT_EQ(static_cast<int64_t>(scores.size()), trip.route.size())
          << "producer " << p << " trip " << t;
      for (size_t k = 0; k < scores.size(); ++k) {
        const double reference =
            causal->Score(trip, static_cast<int64_t>(k) + 1);
        EXPECT_NEAR(scores[k], reference, Tol(reference))
            << "producer " << p << " trip " << t << " k=" << k + 1;
      }
    }
  }
}

}  // namespace
}  // namespace causaltad
