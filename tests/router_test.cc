// Router-tier tests: consistent-hash placement parity across a multi-backend
// fleet, kill-a-backend failover with journaled prefix replay (fault soak),
// graceful drain migration, downstream resume rebuild through the router,
// health probing, and zero-downtime fleet-wide model swaps (RollSwap).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/streaming.h"
#include "util/logging.h"

namespace causaltad {
namespace {

using core::CausalTad;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using net::Client;
using net::ClientOptions;
using net::FaultInjector;
using net::FaultOptions;
using net::Router;
using net::RouterBackend;
using net::RouterOptions;
using net::Server;
using net::ServerOptions;
using serve::ServiceOptions;
using serve::StreamingBatcher;
using serve::StreamingService;
using serve::StreamingSession;

const ExperimentData& Data() {
  static const ExperimentData* data =
      new ExperimentData(BuildExperiment(XianConfig(Scale::kSmoke)));
  return *data;
}

const CausalTad* FittedCausal() {
  static const models::TrajectoryScorer* scorer = [] {
    auto owned = eval::MakeScorer("CausalTAD", Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 2;
    options.lr = 3e-3f;
    options.seed = 17;
    owned->Fit(Data().train, options);
    return owned.release();
  }();
  return dynamic_cast<const CausalTad*>(scorer);
}

// A second, differently-fitted model for hot-swap tests: same architecture,
// different weights, so old-vs-new scores are distinguishable.
const CausalTad* FittedCausalV2() {
  static const models::TrajectoryScorer* scorer = [] {
    auto owned = eval::MakeScorer("CausalTAD", Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 3;
    options.lr = 2e-3f;
    options.seed = 99;
    owned->Fit(Data().train, options);
    return owned.release();
  }();
  return dynamic_cast<const CausalTad*>(scorer);
}

double Tol(double reference, double rel = 1e-6) {
  return rel * std::max(1.0, std::abs(reference));
}

std::vector<traj::Trip> ParityTrips() {
  std::vector<traj::Trip> trips = eval::Subsample(Data().id_test, 6, 7);
  const auto detours = eval::Subsample(Data().id_detour, 2, 8);
  trips.insert(trips.end(), detours.begin(), detours.end());
  return trips;
}

std::vector<std::vector<double>> BatcherReference(
    const CausalTad* causal, const std::vector<traj::Trip>& trips) {
  StreamingBatcher batcher(causal);
  std::vector<StreamingSession> sessions;
  for (const auto& trip : trips) sessions.push_back(batcher.Begin(trip));
  for (size_t i = 0; i < trips.size(); ++i) {
    for (const auto segment : trips[i].route.segments) {
      sessions[i].Push(segment);
    }
    sessions[i].End();
  }
  batcher.Flush();
  std::vector<std::vector<double>> scores(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) scores[i] = sessions[i].Poll();
  return scores;
}

void ExpectScoresMatch(const std::vector<double>& got,
                       const std::vector<double>& reference,
                       const std::string& label) {
  ASSERT_EQ(got.size(), reference.size()) << label;
  for (size_t k = 0; k < reference.size(); ++k) {
    EXPECT_NEAR(got[k], reference[k], Tol(reference[k]))
        << label << " k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Cluster harness: N backend (service, server) pairs that can be killed
// mid-test; dialers consult the slot under a mutex so a killed backend is
// simply unreachable (exactly what a router sees after SIGKILL).
// ---------------------------------------------------------------------------

struct Backend {
  std::unique_ptr<StreamingService> service;
  std::unique_ptr<Server> server;
};

class Cluster {
 public:
  Cluster(int n, const CausalTad* model, bool with_resolver = false) {
    for (int i = 0; i < n; ++i) {
      auto backend = std::make_unique<Backend>();
      ServiceOptions sopts;
      sopts.num_shards = 2;
      sopts.pump = true;
      sopts.max_session_pending = 8;
      sopts.batcher.max_batch_rows = 16;
      sopts.batcher.max_delay_ms = 0.25;
      backend->service = std::make_unique<StreamingService>(model, sopts);
      ServerOptions oopts;
      oopts.network = &Data().city.network;
      if (with_resolver) {
        oopts.model_resolver = [](const std::string& tag) {
          return tag == "v2" ? FittedCausalV2() : nullptr;
        };
      }
      backend->server =
          std::make_unique<Server>(backend->service.get(), oopts);
      CAUSALTAD_CHECK(backend->server->Start().ok());
      backends_.push_back(std::move(backend));
    }
  }

  ~Cluster() {
    for (int i = 0; i < static_cast<int>(backends_.size()); ++i) Kill(i);
  }

  std::vector<RouterBackend> RouterBackends() {
    std::vector<RouterBackend> out;
    for (size_t i = 0; i < backends_.size(); ++i) {
      RouterBackend b;
      b.dialer = [this, i] {
        std::lock_guard<std::mutex> lock(mu_);
        if (backends_[i] == nullptr) return -1;
        return backends_[i]->server->AddLoopbackConnection();
      };
      out.push_back(std::move(b));
    }
    return out;
  }

  // Protocol-equivalent of SIGKILL: the transport dies first (no shutdown
  // rejects reach any client), then the serving state is destroyed.
  void Kill(int i) {
    std::unique_ptr<Backend> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      victim = std::move(backends_[i]);
    }
    if (victim == nullptr) return;
    victim->server->Stop();
    victim->server.reset();
    victim->service->Shutdown();
    victim->service.reset();
  }

  bool Alive(int i) {
    std::lock_guard<std::mutex> lock(mu_);
    return backends_[i] != nullptr;
  }

  serve::ServiceStats ServiceStats(int i) {
    std::lock_guard<std::mutex> lock(mu_);
    CAUSALTAD_CHECK(backends_[i] != nullptr);
    return backends_[i]->service->stats();
  }

  // The live backend currently holding the most begun sessions (kill/drain
  // targets want a backend that actually owns traffic).
  int BusiestBackend() {
    int best = -1;
    int64_t most = -1;
    for (size_t i = 0; i < backends_.size(); ++i) {
      if (!Alive(static_cast<int>(i))) continue;
      const int64_t begun = ServiceStats(static_cast<int>(i)).sessions_begun;
      if (begun > most) {
        most = begun;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

RouterOptions FastRouterOptions() {
  RouterOptions options;
  options.upstream.timeout_ms = 15000.0;
  options.upstream.max_reconnect_attempts = 12;
  options.upstream.reconnect_base_ms = 2.0;
  options.upstream.reconnect_max_ms = 50.0;
  options.health_interval_ms = 10.0;
  options.health_failure_threshold = 2;
  options.health_timeout_ms = 500.0;
  options.idle_tick_ms = 5.0;
  options.drain_timeout_ms = 10000.0;
  return options;
}

void WaitForQuiesce(Router* router, double timeout_ms = 5000.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(timeout_ms));
  while (router->stats().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Placement parity.
// ---------------------------------------------------------------------------

// A plain client pointed at the router instead of a server sees identical
// scores: the router's consistent-hash fan-out across 3 backends is
// invisible downstream, and sessions actually spread across the fleet.
TEST(RouterTest, ParityAcrossThreeBackends) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  Cluster cluster(3, causal);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    std::vector<uint64_t> ids;
    for (const auto& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    // Interleave pushes round-robin so several upstream legs are active at
    // once on the single downstream connection.
    size_t longest = 0;
    for (const auto& trip : trips) {
      longest = std::max(longest, trip.route.segments.size());
    }
    for (size_t k = 0; k < longest; ++k) {
      for (size_t i = 0; i < trips.size(); ++i) {
        if (k >= trips[i].route.segments.size()) continue;
        ASSERT_TRUE(client->Push(ids[i], trips[i].route.segments[k]).ok())
            << client->status().ToString();
      }
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto scores = client->Finish(ids[i]);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      ExpectScoresMatch(*scores, reference[i],
                        "trip " + std::to_string(i));
    }
  }
  WaitForQuiesce(&router);
  EXPECT_EQ(router.stats().sessions_opened,
            static_cast<int64_t>(trips.size()));
  // 8 sessions over a 3-backend ring: expect real spread, not one hot spot.
  int backends_used = 0;
  for (int i = 0; i < 3; ++i) {
    if (cluster.ServiceStats(i).sessions_begun > 0) ++backends_used;
  }
  EXPECT_GE(backends_used, 2);
  router.Stop();
}

// ---------------------------------------------------------------------------
// Kill-a-backend failover soak.
// ---------------------------------------------------------------------------

// The acceptance soak: three backends, deterministic faults on every
// upstream leg, and the busiest backend is destroyed mid-stream. Every
// session it owned fails over to a live peer via journaled prefix replay;
// the downstream streams show exact parity (zero gaps, zero duplicates)
// and the router counted the failovers.
TEST(RouterTest, KillBackendMidStreamFailoverSoak) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  FaultOptions fault_options;
  fault_options.short_write_rate = 0.05;
  fault_options.delay_rate = 0.02;
  fault_options.delay_ms = 0.2;
  fault_options.seed = 20240612;
  FaultInjector faults(fault_options);

  Cluster cluster(3, causal);
  RouterOptions ropts = FastRouterOptions();
  ropts.upstream_fault = &faults;
  Router router(cluster.RouterBackends(), ropts);
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    std::vector<uint64_t> ids;
    for (const auto& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    // First half of every trip lands while all three backends are up.
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = 0; k < segs.size() / 2; ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    // Barrier: a Poll round trip per session forces every pipelined Begin
    // and Push through its backend before the victim is chosen by load.
    // Polled scores are kept and re-joined with the Finish tail below.
    std::vector<std::vector<double>> streams(trips.size());
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto polled = client->Poll(ids[i]);
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      streams[i] = *polled;
    }
    const int victim = cluster.BusiestBackend();
    ASSERT_GE(victim, 0);
    ASSERT_GT(cluster.ServiceStats(victim).sessions_begun, 0);
    cluster.Kill(victim);
    // Second half: pushes to the dead backend hit transport failures, the
    // legs recover onto peers, and the replayed prefixes keep parity.
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = segs.size() / 2; k < segs.size(); ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto tail = client->Finish(ids[i]);
      ASSERT_TRUE(tail.ok()) << tail.status().ToString();
      streams[i].insert(streams[i].end(), tail->begin(), tail->end());
      ExpectScoresMatch(streams[i], reference[i],
                        "post-kill trip " + std::to_string(i));
    }
  }
  WaitForQuiesce(&router);
  const net::RouterStats stats = router.stats();
  EXPECT_GE(stats.failovers, 1) << "no leg failed over to a peer";
  EXPECT_GE(stats.upstream_reconnects, 1);
  EXPECT_EQ(stats.scores_forwarded, [&] {
    int64_t total = 0;
    for (const auto& r : reference) total += static_cast<int64_t>(r.size());
    return total;
  }());
  router.Stop();
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

// DrainBackend moves every leg off the target via administrative migration
// (Client::Migrate through the failover dialer) while streams are live;
// scores stay exact and the drained backend is eligible again after
// UndrainBackend.
TEST(RouterTest, DrainMigratesLegsWithoutGaps) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  Cluster cluster(3, causal);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    std::vector<uint64_t> ids;
    for (const auto& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = 0; k < segs.size() / 2; ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    // Barrier: a Poll round trip per session forces every pipelined Begin
    // and Push through its backend before the victim is chosen by load —
    // otherwise a lagging handler leaves the "busiest" backend legless and
    // the drain completes vacuously. Polled scores are kept and re-joined
    // with the Finish tail below.
    std::vector<std::vector<double>> streams(trips.size());
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto polled = client->Poll(ids[i]);
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      streams[i] = *polled;
    }
    const int victim = cluster.BusiestBackend();
    ASSERT_GE(victim, 0);
    ASSERT_GT(cluster.ServiceStats(victim).sessions_begun, 0);
    ASSERT_TRUE(router.DrainBackend(victim).ok());
    EXPECT_TRUE(router.BackendDraining(victim));
    const int64_t begun_at_drain =
        cluster.ServiceStats(victim).sessions_begun;
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = segs.size() / 2; k < segs.size(); ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto tail = client->Finish(ids[i]);
      ASSERT_TRUE(tail.ok()) << tail.status().ToString();
      streams[i].insert(streams[i].end(), tail->begin(), tail->end());
      ExpectScoresMatch(streams[i], reference[i],
                        "drained trip " + std::to_string(i));
    }
    // Nothing new landed on the draining backend.
    EXPECT_EQ(cluster.ServiceStats(victim).sessions_begun, begun_at_drain);
    router.UndrainBackend(victim);
    EXPECT_FALSE(router.BackendDraining(victim));
  }
  WaitForQuiesce(&router);
  // Normally the idle tick carries the leg off the victim via an
  // administrative Migrate. On a starved box the leg's own timeout-driven
  // reconnect can get there first — its dialer also refuses draining
  // backends, so the drain still completes, counted as a failover instead.
  EXPECT_GE(router.stats().migrations + router.stats().failovers, 1);
  router.Stop();
}

// ---------------------------------------------------------------------------
// Downstream resume through the router.
// ---------------------------------------------------------------------------

// A reconnecting downstream client that loses its router transport resumes
// through a brand-new handler: the router rebuilds each session upstream
// from the client's full prefix replay and drops the already-delivered
// prefix, so the stream continues exactly at the high-water mark.
TEST(RouterTest, DownstreamResumeRebuildsUpstream) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  Cluster cluster(3, causal);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    ClientOptions copts;
    copts.reconnect = true;
    copts.reconnect_base_ms = 1.0;
    copts.dialer = [&router] { return router.AddLoopbackConnection(); };
    auto client = Client::FromFd(router.AddLoopbackConnection(), copts);
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    std::vector<uint64_t> ids;
    for (const auto& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = 0; k < segs.size() / 2; ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    // Forced reconnect: a fresh downstream connection, Resume frames for
    // every session, fresh rebuilds on the ring.
    ASSERT_TRUE(client->Migrate().ok()) << client->status().ToString();
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segs = trips[i].route.segments;
      for (size_t k = segs.size() / 2; k < segs.size(); ++k) {
        ASSERT_TRUE(client->Push(ids[i], segs[k]).ok())
            << client->status().ToString();
      }
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto scores = client->Finish(ids[i]);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      ExpectScoresMatch(*scores, reference[i],
                        "resumed trip " + std::to_string(i));
    }
  }
  WaitForQuiesce(&router);
  EXPECT_GE(router.stats().sessions_resumed,
            static_cast<int64_t>(trips.size()));
  router.Stop();
}

// ---------------------------------------------------------------------------
// Health probing.
// ---------------------------------------------------------------------------

// The health thread marks a destroyed backend dead after the configured
// consecutive-failure threshold, and new sessions keep placing on the
// survivors.
TEST(RouterTest, HealthProbesMarkKilledBackendDead) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  Cluster cluster(2, causal);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());

  cluster.Kill(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.BackendAlive(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(router.BackendAlive(1));
  EXPECT_GE(router.stats().probe_failures, 2);
  EXPECT_EQ(router.stats().backends_dead, 1);

  // New sessions still place (on the survivor).
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  auto client = Client::FromFd(router.AddLoopbackConnection(), {});
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
  const auto& trip = trips[0];
  const uint64_t id = client->Begin(trip.route.segments.front(),
                                    trip.route.segments.back(),
                                    trip.time_slot);
  for (const auto segment : trip.route.segments) {
    ASSERT_TRUE(client->Push(id, segment).ok())
        << client->status().ToString();
  }
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ExpectScoresMatch(*scores, reference[0], "survivor trip");
  router.Stop();
}

// ---------------------------------------------------------------------------
// Fleet-wide model swap.
// ---------------------------------------------------------------------------

// RollSwap on a single-backend fleet skips the drain: live sessions finish
// on the OLD model (the service's generation guarantee), and sessions begun
// after the swap score on the new one — both at exact parity.
TEST(RouterTest, RollSwapSingleBackendOldSessionsFinishOnOldModel) {
  const CausalTad* causal = FittedCausal();
  const CausalTad* causal_v2 = FittedCausalV2();
  ASSERT_NE(causal, nullptr);
  ASSERT_NE(causal_v2, nullptr);
  const auto trips = ParityTrips();
  const auto old_reference = BatcherReference(causal, trips);
  const auto new_reference = BatcherReference(causal_v2, trips);

  Cluster cluster(1, causal, /*with_resolver=*/true);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    const auto& trip = trips[0];
    const uint64_t pre = client->Begin(trip.route.segments.front(),
                                       trip.route.segments.back(),
                                       trip.time_slot);
    for (size_t k = 0; k < trip.route.segments.size() / 2; ++k) {
      ASSERT_TRUE(client->Push(pre, trip.route.segments[k]).ok());
    }
    ASSERT_TRUE(router.RollSwap("v2").ok());
    EXPECT_EQ(router.stats().swaps_rolled, 1);
    // The pre-swap session: never migrated, still pinned to the old
    // generation, finishes on the old weights.
    for (size_t k = trip.route.segments.size() / 2;
         k < trip.route.segments.size(); ++k) {
      ASSERT_TRUE(client->Push(pre, trip.route.segments[k]).ok());
    }
    const auto pre_scores = client->Finish(pre);
    ASSERT_TRUE(pre_scores.ok()) << pre_scores.status().ToString();
    // Never migrated, still pinned to the old generation, the pre-swap
    // session finishes entirely on the old weights. One timing caveat keeps
    // this robust on a starved box: if the upstream leg's timeout-driven
    // reconnect fires after the commit, the rebuild lands on the new
    // generation and the stream splices old->new at the delivered
    // high-water mark instead — the same at-most-one-switch guarantee the
    // fleet test pins down. Either way every score is exactly one model's
    // score and the stream never flaps back.
    ASSERT_EQ(pre_scores->size(), old_reference[0].size())
        << "pre-swap session: gapped or duplicated stream";
    bool switched = false;
    for (size_t k = 0; k < pre_scores->size(); ++k) {
      const double got = (*pre_scores)[k];
      const bool is_old =
          std::abs(got - old_reference[0][k]) <= Tol(old_reference[0][k]);
      const bool is_new =
          std::abs(got - new_reference[0][k]) <= Tol(new_reference[0][k]);
      ASSERT_TRUE(is_old || is_new)
          << "pre-swap k=" << k << ": score " << got
          << " matches neither model (old=" << old_reference[0][k]
          << " new=" << new_reference[0][k] << ")";
      if (switched && !is_new) {
        FAIL() << "pre-swap k=" << k << ": flapped back to the old model";
      }
      if (!is_old && is_new) switched = true;
    }
    // A post-swap session scores on the new weights.
    const uint64_t post = client->Begin(trip.route.segments.front(),
                                        trip.route.segments.back(),
                                        trip.time_slot);
    for (const auto segment : trip.route.segments) {
      ASSERT_TRUE(client->Push(post, segment).ok());
    }
    const auto post_scores = client->Finish(post);
    ASSERT_TRUE(post_scores.ok()) << post_scores.status().ToString();
    ExpectScoresMatch(*post_scores, new_reference[0], "post-swap session");
  }
  WaitForQuiesce(&router);
  router.Stop();
}

// RollSwap across a 2-backend fleet under live load: each backend is
// staged, drained, committed, undrained in turn. A mid-flight session
// either gets rebuilt by prefix replay on a committed peer (its stream is
// exactly old-model scores up to the pre-swap high-water mark, then
// new-model scores computed with full prefix context) or is re-adopted
// from a backend's detached table, where it stays pinned to the drained
// old generation and finishes entirely on the old weights — the service's
// sessions-never-split-models guarantee. Either way every score is EXACTLY
// one model's score for its position, the old->new switch happens at most
// once per session, and nothing is gapped or duplicated.
TEST(RouterTest, RollSwapFleetUnderLoadSpliceParity) {
  const CausalTad* causal = FittedCausal();
  const CausalTad* causal_v2 = FittedCausalV2();
  ASSERT_NE(causal, nullptr);
  ASSERT_NE(causal_v2, nullptr);
  const auto trips = ParityTrips();
  const auto old_reference = BatcherReference(causal, trips);
  const auto new_reference = BatcherReference(causal_v2, trips);

  Cluster cluster(2, causal, /*with_resolver=*/true);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    std::vector<uint64_t> ids;
    std::vector<size_t> half(trips.size());
    std::vector<std::vector<double>> delivered(trips.size());
    for (const auto& trip : trips) {
      ids.push_back(client->Begin(trip.route.segments.front(),
                                  trip.route.segments.back(),
                                  trip.time_slot));
    }
    // Push the first half and drain every score it produced, pinning each
    // session's delivered high-water mark to exactly half its points.
    for (size_t i = 0; i < trips.size(); ++i) {
      half[i] = trips[i].route.segments.size() / 2;
      for (size_t k = 0; k < half[i]; ++k) {
        ASSERT_TRUE(client->Push(ids[i], trips[i].route.segments[k]).ok());
      }
    }
    for (size_t i = 0; i < trips.size(); ++i) {
      while (delivered[i].size() < half[i]) {
        const auto polled = client->Poll(ids[i]);
        ASSERT_TRUE(polled.ok()) << polled.status().ToString();
        delivered[i].insert(delivered[i].end(), polled->begin(),
                            polled->end());
        if (polled->empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      ASSERT_EQ(delivered[i].size(), half[i]);
    }
    ASSERT_TRUE(router.RollSwap("v2").ok());
    EXPECT_EQ(router.stats().swaps_rolled, 2);
    // Second half: every session now lives on a v2 backend (the drains
    // rebuilt them by prefix replay, and the emit-skip kept the stream at
    // the high-water mark).
    for (size_t i = 0; i < trips.size(); ++i) {
      for (size_t k = half[i]; k < trips[i].route.segments.size(); ++k) {
        ASSERT_TRUE(client->Push(ids[i], trips[i].route.segments[k]).ok());
      }
    }
    int sessions_on_new_model = 0;
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto tail = client->Finish(ids[i]);
      ASSERT_TRUE(tail.ok()) << tail.status().ToString();
      delivered[i].insert(delivered[i].end(), tail->begin(), tail->end());
      ASSERT_EQ(delivered[i].size(), old_reference[i].size())
          << "trip " << i << ": gapped or duplicated stream";
      bool switched = false;
      for (size_t k = 0; k < delivered[i].size(); ++k) {
        const bool is_old =
            std::abs(delivered[i][k] - old_reference[i][k]) <=
            Tol(old_reference[i][k]);
        const bool is_new =
            std::abs(delivered[i][k] - new_reference[i][k]) <=
            Tol(new_reference[i][k]);
        ASSERT_TRUE(is_old || is_new)
            << "trip " << i << " k=" << k << ": score "
            << delivered[i][k] << " matches neither model (old="
            << old_reference[i][k] << " new=" << new_reference[i][k] << ")";
        if (k < half[i]) {
          // The pre-swap prefix was delivered before any drain: old model.
          EXPECT_TRUE(is_old) << "trip " << i << " k=" << k;
        }
        if (switched && !is_new) {
          FAIL() << "trip " << i << " k=" << k
                 << ": flapped back to the old model";
        }
        if (!is_old && is_new) switched = true;
      }
      if (switched) ++sessions_on_new_model;
    }
    // The trip set deterministically spans both legs, so at least one
    // session is rebuilt across the model boundary (spliced) rather than
    // re-adopted onto its old generation.
    EXPECT_GE(sessions_on_new_model, 1);
  }
  WaitForQuiesce(&router);
  const net::RouterStats stats = router.stats();
  // Drains normally move legs via administrative Migrate; a timeout-driven
  // reconnect racing the drain moves them as a failover instead.
  EXPECT_GE(stats.migrations + stats.failovers, 1);
  // Both backends committed the staged model.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.ServiceStats(i).model_swaps, 1) << "backend " << i;
  }
  router.Stop();
}

// The control plane answers an out-of-range backend index the way
// UndrainBackend ignores one: no backend, so neither alive nor draining.
TEST(RouterTest, OutOfRangeBackendIsNeitherAliveNorDraining) {
  Cluster cluster(2, FittedCausal());
  RouterOptions options = FastRouterOptions();
  options.health_interval_ms = 0.0;
  Router router(cluster.RouterBackends(), options);
  for (const int backend : {-1, 2, 1 << 20}) {
    EXPECT_FALSE(router.BackendAlive(backend)) << backend;
    EXPECT_FALSE(router.BackendDraining(backend)) << backend;
    router.UndrainBackend(backend);
    EXPECT_FALSE(router.DrainBackend(backend).ok()) << backend;
  }
  EXPECT_TRUE(router.BackendAlive(1));
  EXPECT_FALSE(router.BackendDraining(1));
}

// ---------------------------------------------------------------------------
// Downstream auth surface.
// ---------------------------------------------------------------------------

// A token-checked router in the examples/online_monitoring.cpp setup: the
// backends check the same tenant and authorize it for scrapes, the router
// checks its own tenant_tokens. A wrong token is refused with auth_failed, a
// wire Admin frame is refused with a kError ack (model administration is
// RollSwap's), and a Stats frame from an authed tenant returns the fleet
// view: every backend's series labelled backend="<i>" plus the router_*
// series.
TEST(RouterTest, TokenCheckedRouterAuthAdminAndFleetScrape) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const std::unordered_map<std::string, std::string> tokens = {
      {"fleet-demo", "s3cret"}};
  obs::Registry backend_registry[2];
  obs::Registry router_registry;
  std::vector<Backend> backends(2);
  std::vector<RouterBackend> router_backends(2);
  for (int i = 0; i < 2; ++i) {
    ServiceOptions sopts;
    sopts.num_shards = 1;
    sopts.pump = true;
    sopts.registry = &backend_registry[i];
    backends[i].service = std::make_unique<StreamingService>(causal, sopts);
    ServerOptions oopts;
    oopts.tenant_tokens = tokens;
    oopts.admin_tenant = "fleet-demo";
    oopts.network = &Data().city.network;
    oopts.registry = &backend_registry[i];
    backends[i].server =
        std::make_unique<Server>(backends[i].service.get(), oopts);
    ASSERT_TRUE(backends[i].server->Start().ok());
    Server* server = backends[i].server.get();
    router_backends[i].dialer = [server] {
      return server->AddLoopbackConnection();
    };
  }
  RouterOptions ropts = FastRouterOptions();
  ropts.tenant_tokens = tokens;
  ropts.upstream.tenant = "fleet-demo";
  ropts.upstream.auth_token = "s3cret";
  ropts.registry = &router_registry;
  Router router(std::move(router_backends), ropts);
  ASSERT_TRUE(router.Start().ok());
  {
    // Raw frames: a Client's Hello barrier may hit the closed socket
    // before it reads the verdict, so read the verdict directly.
    const int fd = router.AddLoopbackConnection();
    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.tenant = "fleet-demo";
    hello.auth_token = "wrong";
    std::vector<uint8_t> bytes;
    net::EncodeFrame(hello, &bytes);
    ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    net::FrameDecoder decoder;
    net::Frame reply;
    uint8_t buf[4096];
    while (!decoder.Next(&reply)) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "closed without a verdict";
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    close(fd);
    EXPECT_EQ(reply.type, net::FrameType::kError);
    EXPECT_EQ(reply.code, net::ErrorCode::kAuthFailed) << reply.message;
  }
  EXPECT_GE(router.stats().auth_failures, 1);
  {
    ClientOptions good;
    good.tenant = "fleet-demo";
    good.auth_token = "s3cret";
    auto client = Client::FromFd(router.AddLoopbackConnection(), good);
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    const int64_t refused = router.stats().auth_failures;
    uint64_t result = 0;
    std::string message;
    ASSERT_TRUE(client->Admin("commit", &result, &message).ok())
        << client->status().ToString();
    EXPECT_EQ(result, static_cast<uint64_t>(net::AdminStatus::kError))
        << message;
    // Refused because the router routes no Admin, not an auth failure.
    EXPECT_EQ(router.stats().auth_failures, refused);
    std::string fleet;
    ASSERT_TRUE(client->ScrapeStats(&fleet).ok())
        << client->status().ToString();
    EXPECT_EQ(fleet.rfind("# causaltad_metrics v1\n", 0), 0u);
    for (int i = 0; i < 2; ++i) {
      const std::string label = "backend=\"" + std::to_string(i) + "\"";
      EXPECT_NE(fleet.find("server_connections_accepted_total{" + label),
                std::string::npos)
          << fleet;
    }
    for (const char* series :
         {"router_connections_accepted_total ", "router_auth_failures_total ",
          "router_sessions_opened_total ", "router_health_probes_total "}) {
      EXPECT_NE(fleet.find(series), std::string::npos) << series << fleet;
    }
  }
  router.Stop();
  for (Backend& backend : backends) {
    backend.server->Stop();
    backend.service->Shutdown();
  }
}

// ---------------------------------------------------------------------------
// Session lifetime and lost upstream sessions.
// ---------------------------------------------------------------------------

void WaitForNoRouterSessions(Router* router, double timeout_ms = 5000.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(timeout_ms));
  while (router->stats().sessions_live > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// The router forgets a session once it has handed out its last score:
// after many Begin/Push/Finish cycles, and after a client that disconnects
// mid-stream, it holds no session state.
TEST(RouterTest, FinishedAndAbandonedSessionsReleaseRouterState) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  Cluster cluster(2, causal);
  Router router(cluster.RouterBackends(), FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());
  {
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    for (int round = 0; round < 5; ++round) {
      for (const auto& trip : trips) {
        const uint64_t id = client->Begin(trip.route.segments.front(),
                                          trip.route.segments.back(),
                                          trip.time_slot);
        for (const auto segment : trip.route.segments) {
          ASSERT_TRUE(client->Push(id, segment).ok())
              << client->status().ToString();
        }
        const auto scores = client->Finish(id);
        ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      }
    }
    // A round trip after the last End: every End has been handled.
    ASSERT_TRUE(client->Heartbeat().ok()) << client->status().ToString();
    EXPECT_EQ(router.stats().sessions_opened,
              static_cast<int64_t>(5 * trips.size()));
    EXPECT_EQ(router.stats().sessions_live, 0);
  }
  {
    // Disconnect with sessions mid-stream: the server ends them and drains
    // their remaining scores, then the router lets them go.
    auto client = Client::FromFd(router.AddLoopbackConnection(), {});
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    for (const auto& trip : trips) {
      const uint64_t id = client->Begin(trip.route.segments.front(),
                                        trip.route.segments.back(),
                                        trip.time_slot);
      const auto& segs = trip.route.segments;
      for (size_t k = 0; k < segs.size() / 2; ++k) {
        ASSERT_TRUE(client->Push(id, segs[k]).ok())
            << client->status().ToString();
      }
    }
    ASSERT_TRUE(client->Heartbeat().ok()) << client->status().ToString();
    EXPECT_EQ(router.stats().sessions_live,
              static_cast<int64_t>(trips.size()));
  }
  WaitForNoRouterSessions(&router);
  EXPECT_EQ(router.stats().sessions_live, 0);
  router.Stop();
}

// An upstream leg that exhausts its reconnect budget loses its sessions.
// The router's server tells the downstream client with a recoverable
// Error; the client reconnects and Resumes, the session is rebuilt from
// its journal on a fresh leg, and the stream keeps exact parity.
TEST(RouterTest, LostUpstreamSessionIsRebuiltByDownstreamResume) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  const auto& trip = trips.front();
  const auto& segs = trip.route.segments;
  ASSERT_GE(segs.size(), 4u);

  Cluster cluster(2, causal);
  // While `unreachable` is set every upstream dial fails; `refused` counts
  // the dials it turned away.
  std::atomic<bool> unreachable{false};
  std::atomic<int> refused{0};
  std::vector<RouterBackend> backends = cluster.RouterBackends();
  for (RouterBackend& backend : backends) {
    backend.dialer = [&unreachable, &refused, dial = backend.dialer] {
      if (unreachable.load()) {
        refused.fetch_add(1);
        return -1;
      }
      return dial();
    };
  }
  RouterOptions ropts = FastRouterOptions();
  ropts.health_interval_ms = 0.0;  // only leg dials go through the gate
  ropts.upstream.max_reconnect_attempts = 2;
  ropts.upstream.reconnect_base_ms = 1.0;
  ropts.upstream.reconnect_max_ms = 2.0;
  ropts.upstream_heartbeat_ms = 5.0;  // finds the dead leg while idle
  Router router(std::move(backends), ropts);
  ASSERT_TRUE(router.Start().ok());
  {
    ClientOptions copts;
    copts.reconnect = true;
    copts.reconnect_base_ms = 1.0;
    copts.timeout_ms = 10000.0;
    copts.dialer = [&router] { return router.AddLoopbackConnection(); };
    auto client = Client::FromFd(router.AddLoopbackConnection(), copts);
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    const uint64_t id = client->Begin(segs.front(), segs.back(),
                                      trip.time_slot);
    for (size_t k = 0; k < segs.size() / 2; ++k) {
      ASSERT_TRUE(client->Push(id, segs[k]).ok())
          << client->status().ToString();
    }
    const auto polled = client->Poll(id);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    std::vector<double> stream = *polled;

    // Kill the session's backend with every dial failing: the leg's
    // heartbeat finds the dead transport, both redial attempts (each
    // trying both backends) are refused, and the leg latches.
    unreachable.store(true);
    cluster.Kill(cluster.BusiestBackend());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (refused.load() < 2 * 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(refused.load(), 2 * 2) << "the leg never tried to redial";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    unreachable.store(false);

    for (size_t k = segs.size() / 2; k < segs.size(); ++k) {
      ASSERT_TRUE(client->Push(id, segs[k]).ok())
          << client->status().ToString();
    }
    const auto tail = client->Finish(id);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    stream.insert(stream.end(), tail->begin(), tail->end());
    ExpectScoresMatch(stream, reference.front(), "rebuilt trip");
    EXPECT_GE(client->stats().reconnects, 1);
  }
  EXPECT_GE(router.stats().sessions_resumed, 1);
  WaitForNoRouterSessions(&router);
  EXPECT_EQ(router.stats().sessions_live, 0);
  router.Stop();
}

// With no backend reachable a Begin is refused with a shutting_down Error
// (and the connection closed), so a client gets an error instead of
// waiting out its timeout.
TEST(RouterTest, BeginWithNoReachableBackendIsRefused) {
  RouterBackend nowhere;
  nowhere.dialer = [] { return -1; };
  RouterOptions ropts = FastRouterOptions();
  ropts.health_interval_ms = 0.0;  // the backend stays eligible
  Router router({nowhere}, ropts);
  ASSERT_TRUE(router.Start().ok());
  {
    // Raw frames: a Client's next send may hit the closed socket before it
    // reads the verdict, so read the verdict directly.
    const auto trips = ParityTrips();
    const auto& segs = trips.front().route.segments;
    const int fd = router.AddLoopbackConnection();
    timeval wait{5, 0};  // a missing verdict fails the test, not hangs it
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait));
    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.tenant = "any";
    net::Frame begin;
    begin.type = net::FrameType::kBegin;
    begin.session = 1;
    begin.source = segs.front();
    begin.destination = segs.back();
    std::vector<uint8_t> bytes;
    net::EncodeFrame(hello, &bytes);
    net::EncodeFrame(begin, &bytes);
    ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    net::FrameDecoder decoder;
    net::Frame reply;
    uint8_t buf[4096];
    while (!decoder.Next(&reply)) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "no verdict: closed or timed out";
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(reply.type, net::FrameType::kError);
    EXPECT_EQ(reply.code, net::ErrorCode::kShuttingDown) << reply.message;
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    }
    EXPECT_EQ(n, 0) << "the router left the connection open";
    close(fd);
  }
  EXPECT_EQ(router.stats().sessions_live, 0);
  router.Stop();
}

}  // namespace
}  // namespace causaltad
