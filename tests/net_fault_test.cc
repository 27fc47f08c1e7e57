// Fault-tolerance tests for the wire layer: partial-write/EAGAIN handling,
// fd lifecycle across server churn, deterministic reconnect backoff,
// heartbeat reaping + transparent resume, randomized fault-injection soaks
// (drop/dup/truncate/kill/delay), a kill-the-server-mid-stream soak that
// destroys ALL serving state and still ends with exact score parity, and
// graceful drain semantics.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/streaming.h"
#include "util/logging.h"
#include "util/random.h"

namespace causaltad {
namespace {

using core::CausalTad;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using net::BackoffDelayMs;
using net::Client;
using net::ClientOptions;
using net::FaultInjector;
using net::FaultOptions;
using net::FaultStats;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
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

double Tol(double reference, double rel = 1e-6) {
  return rel * std::max(1.0, std::abs(reference));
}

std::vector<traj::Trip> ParityTrips() {
  std::vector<traj::Trip> trips = eval::Subsample(Data().id_test, 6, 7);
  const auto detours = eval::Subsample(Data().id_detour, 2, 8);
  trips.insert(trips.end(), detours.begin(), detours.end());
  return trips;
}

/// Reference scores from one single-consumer StreamingBatcher (the exact
/// arithmetic every recovery path must reproduce).
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

ServiceOptions PumpedServiceOptions() {
  ServiceOptions options;
  options.num_shards = 2;
  options.pump = true;
  options.max_session_pending = 8;
  options.batcher.max_batch_rows = 16;
  options.batcher.max_delay_ms = 0.25;
  return options;
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

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

// ---------------------------------------------------------------------------
// Partial writes and EAGAIN.
// ---------------------------------------------------------------------------

// A non-blocking socket with a tiny send buffer and a slow reader: the
// client's large Hello cannot leave in one send(2), so the send path MUST
// wait out EAGAIN and resume the partial write. (The pre-SendAll client
// latched a fatal IoError on the first EAGAIN and this test failed.)
TEST(NetFaultTest, PartialWriteBlockedSenderCompletes) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  const int flags = fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);

  std::thread fake_server([peer = fds[1]] {
    // Let the writer fill the buffer and hit EAGAIN before reading a byte.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    FrameDecoder decoder;
    uint8_t buf[2048];
    bool answered = false;
    while (!answered) {
      const ssize_t n = recv(peer, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed(buf, static_cast<size_t>(n));
      Frame frame;
      while (decoder.Next(&frame)) {
        if (frame.type != FrameType::kPoll) continue;
        Frame delta;
        delta.type = FrameType::kScoreDelta;
        delta.session = frame.session;
        delta.token = frame.token;
        std::vector<uint8_t> bytes;
        EncodeFrame(delta, &bytes);
        size_t off = 0;
        while (off < bytes.size()) {
          const ssize_t sent =
              send(peer, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
          if (sent <= 0) break;
          off += static_cast<size_t>(sent);
        }
        answered = true;
      }
      // Slow reader: keep the writer blocked across several resumes.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close(peer);
  });

  ClientOptions options;
  options.tenant = std::string(200 * 1024, 't');  // ~200 KiB Hello frame
  options.timeout_ms = 10000.0;
  auto client = Client::FromFd(fds[0], options);
  EXPECT_TRUE(client->Hello().ok()) << client->status().ToString();
  fake_server.join();
}

// Every send chopped to a tiny prefix (short_write_rate = 1) on BOTH
// endpoints: the resume-the-remainder paths in client SendAll and server
// FlushWrites carry the full stream and scores stay exact.
TEST(NetFaultTest, ShortWriteFaultStreamStillExact) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  const traj::Trip& trip = trips[0];

  FaultOptions fault_options;
  fault_options.short_write_rate = 1.0;
  fault_options.seed = 7;
  FaultInjector faults(fault_options);

  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  server_options.fault = &faults;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.fault = &faults;
  auto client =
      Client::FromFd(server.AddLoopbackConnection(), client_options);
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
  const uint64_t id =
      client->Begin(trip.route.segments.front(), trip.route.segments.back(),
                    trip.time_slot);
  for (const auto segment : trip.route.segments) {
    ASSERT_TRUE(client->Push(id, segment).ok())
        << client->status().ToString();
  }
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ExpectScoresMatch(*scores, reference[0], "short-write trip");
  EXPECT_GT(faults.stats().short_writes, 0);
  server.Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Fd lifecycle.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, OpenFdCountStableAcrossChurn) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  StreamingService service(causal, PumpedServiceOptions());
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);
  for (int round = 0; round < 8; ++round) {
    {
      // Never-started server holding a queued loopback fd: teardown must
      // still reap it (the old Stop() early-returned and leaked it).
      Server server(&service, ServerOptions{});
      const int peer = server.AddLoopbackConnection();
      close(peer);
    }
    {
      // Loopback connection churn through a live server + graceful drain.
      Server server(&service, ServerOptions{});
      ASSERT_TRUE(server.Start().ok());
      for (int i = 0; i < 4; ++i) {
        auto client = Client::FromFd(server.AddLoopbackConnection());
        ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
      }
      EXPECT_TRUE(server.Drain(5000.0));
      server.Stop();
    }
    {
      // TCP listener churn (Drain closes the listener; Stop must not
      // double-close it).
      ServerOptions tcp_options;
      tcp_options.listen_port = 0;
      Server server(&service, tcp_options);
      ASSERT_TRUE(server.Start().ok());
      auto client = Client::ConnectTcp("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      ASSERT_TRUE((*client)->Hello().ok());
      EXPECT_TRUE(server.Drain(5000.0));
      server.Stop();
    }
  }
  EXPECT_EQ(CountOpenFds(), baseline);
  service.Shutdown();
}

// A Start() that fails opens nothing it keeps: neither the wake pipe nor
// the listener survives a bad listen_host or a port another listener holds.
TEST(NetFaultTest, FailedStartLeavesNoOpenFds) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions holder_options;
  holder_options.listen_port = 0;
  Server holder(&service, holder_options);
  ASSERT_TRUE(holder.Start().ok());
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);
  for (int round = 0; round < 4; ++round) {
    ServerOptions bad_host;
    bad_host.listen_port = 0;
    bad_host.listen_host = "not-an-address";
    Server first(&service, bad_host);
    EXPECT_FALSE(first.Start().ok());
    EXPECT_EQ(CountOpenFds(), baseline) << "bad host, round " << round;

    ServerOptions taken;
    taken.listen_port = holder.port();
    Server second(&service, taken);
    EXPECT_FALSE(second.Start().ok());
    EXPECT_EQ(CountOpenFds(), baseline) << "port in use, round " << round;
  }
  holder.Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Reconnect backoff.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, BackoffScheduleDeterministicAndBudgetLatches) {
  // Jitter-free schedule: exact exponential doubling, capped.
  EXPECT_DOUBLE_EQ(BackoffDelayMs(0, 10.0, 2000.0, 0.0, nullptr), 10.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(3, 10.0, 2000.0, 0.0, nullptr), 80.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(12, 10.0, 2000.0, 0.0, nullptr), 2000.0);
  // Same seed -> same jittered schedule; jitter stays within its band.
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  for (int k = 0; k < 12; ++k) {
    const double a = BackoffDelayMs(k, 10.0, 2000.0, 0.1, &rng_a);
    const double b = BackoffDelayMs(k, 10.0, 2000.0, 0.1, &rng_b);
    EXPECT_DOUBLE_EQ(a, b) << "attempt " << k;
    const double nominal = std::min(10.0 * std::pow(2.0, k), 2000.0);
    EXPECT_GE(a, nominal * 0.9 - 1e-9) << "attempt " << k;
    EXPECT_LE(a, nominal * 1.1 + 1e-9) << "attempt " << k;
  }

  // A client whose redials all fail sleeps the schedule exactly
  // max_reconnect_attempts times, then latches the fatal. This pins the
  // LEGACY exponential ladder, so decorrelated backoff is off.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[1]);  // peer gone: the first send hits EPIPE
  ClientOptions options;
  options.reconnect = true;
  options.decorrelated_backoff = false;
  options.max_reconnect_attempts = 5;
  options.reconnect_base_ms = 1.0;
  options.reconnect_max_ms = 8.0;
  options.reconnect_jitter = 0.25;
  options.client_id = 7;
  std::vector<double> sleeps;
  options.sleeper = [&sleeps](double ms) { sleeps.push_back(ms); };
  options.dialer = [] { return -1; };
  auto client = Client::FromFd(fds[0], options);
  EXPECT_FALSE(client->Hello().ok());
  EXPECT_FALSE(client->status().ok());
  ASSERT_EQ(sleeps.size(), 5u);
  for (size_t k = 0; k < sleeps.size(); ++k) {
    const double nominal =
        std::min(1.0 * std::pow(2.0, static_cast<double>(k)), 8.0);
    EXPECT_GE(sleeps[k], nominal * 0.75 - 1e-9) << "attempt " << k;
    EXPECT_LE(sleeps[k], nominal * 1.25 + 1e-9) << "attempt " << k;
  }
}

// Decorrelated-jitter backoff: bounds, determinism, and — the point of the
// schedule — cross-client spread. A fleet failing over together must NOT
// retry in lockstep the way a shared exponential ladder makes it.
TEST(NetFaultTest, DecorrelatedBackoffBoundsAndSpread) {
  using net::DecorrelatedBackoffMs;
  // nullptr rng takes the deterministic midpoint of [base, 3*prev].
  EXPECT_DOUBLE_EQ(DecorrelatedBackoffMs(10.0, 10.0, 2000.0, nullptr),
                   20.0);  // base + 0.5 * (3*10 - 10)
  EXPECT_DOUBLE_EQ(DecorrelatedBackoffMs(20.0, 10.0, 2000.0, nullptr),
                   35.0);  // base + 0.5 * (3*20 - 10)
  // The cap binds; prev below base is lifted to base.
  EXPECT_DOUBLE_EQ(DecorrelatedBackoffMs(5000.0, 10.0, 2000.0, nullptr),
                   2000.0);
  EXPECT_DOUBLE_EQ(DecorrelatedBackoffMs(1.0, 10.0, 2000.0, nullptr), 20.0);

  // Same seed -> same wandering schedule; every step within [base, max].
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  double prev_a = 10.0;
  double prev_b = 10.0;
  for (int k = 0; k < 20; ++k) {
    prev_a = DecorrelatedBackoffMs(prev_a, 10.0, 2000.0, &rng_a);
    prev_b = DecorrelatedBackoffMs(prev_b, 10.0, 2000.0, &rng_b);
    EXPECT_DOUBLE_EQ(prev_a, prev_b) << "step " << k;
    EXPECT_GE(prev_a, 10.0) << "step " << k;
    EXPECT_LE(prev_a, 2000.0) << "step " << k;
  }

  // 200 clients, 4 attempts into a shared outage. The legacy ladder bunches
  // every client inside nominal*(1 +/- jitter); the decorrelated schedules
  // must spread across the band instead of re-converging on one instant.
  constexpr int kClients = 200;
  constexpr double kBase = 10.0;
  constexpr double kMax = 2000.0;
  std::vector<double> fourth(kClients);
  for (int c = 0; c < kClients; ++c) {
    util::Rng rng(1000 + c);
    double prev = kBase;
    for (int k = 0; k < 4; ++k) {
      prev = DecorrelatedBackoffMs(prev, kBase, kMax, &rng);
      EXPECT_GE(prev, kBase);
      EXPECT_LE(prev, kMax);
    }
    fourth[c] = prev;
  }
  // Herd metric: the share inside the legacy +/-25% band around the
  // equivalent exponential nominal (base * 2^4, where EVERY legacy client
  // sits) must be a minority.
  const double nominal = std::min(kBase * 16.0, kMax);
  int in_band = 0;
  for (const double d : fourth) {
    if (d >= nominal * 0.75 && d <= nominal * 1.25) ++in_band;
  }
  EXPECT_LT(in_band, kClients / 2)
      << "decorrelated schedules re-bunched around the exponential nominal";
  // Coverage: samples land across the whole band, not one octave. Split
  // [base, max] into 8 geometric bins; no bin may hold > 60% of clients
  // and at least 3 distinct bins must be populated.
  std::array<int, 8> bins{};
  for (const double d : fourth) {
    const double t = std::log(d / kBase) / std::log(kMax / kBase);
    const int bin = std::min(7, std::max(0, static_cast<int>(t * 8)));
    ++bins[bin];
  }
  int populated = 0;
  for (const int count : bins) {
    if (count > 0) ++populated;
    EXPECT_LE(count, (kClients * 6) / 10) << "one bin holds the herd";
  }
  EXPECT_GE(populated, 3);
}

// ---------------------------------------------------------------------------
// Heartbeats, reaping, resume.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, HeartbeatReapsIdlePeerAndResumeReattaches) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 4);

  StreamingService service(causal, PumpedServiceOptions());
  std::atomic<double> clock_ms{0.0};
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  server_options.heartbeat_timeout_ms = 1000.0;
  server_options.detached_linger_ms = 0.0;  // parked sessions never expire
  server_options.now_ms = [&clock_ms] { return clock_ms.load(); };
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.reconnect = true;
  client_options.client_id = 11;
  client_options.reconnect_base_ms = 1.0;
  client_options.reconnect_max_ms = 20.0;
  client_options.dialer = [&server] {
    return server.AddLoopbackConnection();
  };
  auto client =
      Client::FromFd(server.AddLoopbackConnection(), client_options);
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();

  // Pings count as activity: an idle-but-heartbeating peer is never reaped.
  clock_ms.store(900.0);
  ASSERT_TRUE(client->Heartbeat().ok()) << client->status().ToString();
  clock_ms.store(1800.0);
  ASSERT_TRUE(client->Heartbeat().ok()) << client->status().ToString();
  EXPECT_EQ(server.stats().connections_reaped, 0);
  EXPECT_GE(server.stats().heartbeats, 2);

  // Half a trip, then silence past the timeout: the server reaps the
  // half-open connection and parks the resumable session.
  const uint64_t id =
      client->Begin(trip.route.segments.front(), trip.route.segments.back(),
                    trip.time_slot);
  const size_t half = trip.route.size() / 2;
  for (size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(client->Push(id, trip.route.segments[k]).ok())
        << client->status().ToString();
  }
  // Poll is a barrier: Push is fire-and-forget, so without it the fake
  // clock could jump while Begin/Push bytes are still unread and the reap
  // would race the session's very creation. Poll moves out any scores
  // already delivered — keep them for the final comparison.
  const auto early = client->Poll(id);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  clock_ms.store(5000.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().connections_reaped < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server.stats().connections_reaped, 1);
  EXPECT_GE(server.stats().sessions_detached, 1);

  // The next op hits the dead transport; the client transparently redials
  // and the server re-adopts the parked session — no gaps, no duplicates.
  for (size_t k = half; k < trip.route.size(); ++k) {
    ASSERT_TRUE(client->Push(id, trip.route.segments[k]).ok())
        << client->status().ToString();
  }
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  std::vector<double> all = *early;
  all.insert(all.end(), scores->begin(), scores->end());
  ExpectScoresMatch(all, reference[0], "reaped-and-resumed trip");
  EXPECT_GE(client->stats().reconnects, 1);
  EXPECT_GE(server.stats().sessions_resumed, 1);
  server.Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Randomized fault soak.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, RandomizedFaultSoakParity) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  FaultOptions fault_options;
  fault_options.drop_rate = 0.02;
  fault_options.dup_rate = 0.02;
  fault_options.truncate_rate = 0.02;
  fault_options.kill_rate = 0.01;
  fault_options.delay_rate = 0.05;
  fault_options.delay_ms = 0.2;
  fault_options.seed = 20240612;
  FaultInjector server_faults(fault_options);
  FaultInjector client_faults(fault_options);

  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  server_options.fault = &server_faults;
  server_options.detached_linger_ms = 60000.0;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.reconnect = true;
  client_options.client_id = 3;
  client_options.max_inflight = 24;
  client_options.max_reconnect_attempts = 16;
  client_options.reconnect_base_ms = 1.0;
  client_options.reconnect_max_ms = 50.0;
  client_options.timeout_ms = 60000.0;
  client_options.fault = &client_faults;
  client_options.dialer = [&server] {
    return server.AddLoopbackConnection();
  };
  auto client =
      Client::FromFd(server.AddLoopbackConnection(), client_options);
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();

  for (size_t i = 0; i < trips.size(); ++i) {
    const uint64_t id = client->Begin(trips[i].route.segments.front(),
                                      trips[i].route.segments.back(),
                                      trips[i].time_slot);
    for (const auto segment : trips[i].route.segments) {
      ASSERT_TRUE(client->Push(id, segment).ok())
          << "trip " << i << ": " << client->status().ToString();
    }
    const auto scores = client->Finish(id);
    ASSERT_TRUE(scores.ok()) << "trip " << i << ": "
                             << scores.status().ToString();
    ExpectScoresMatch(*scores, reference[i],
                      "faulted trip " + std::to_string(i));
  }

  const FaultStats ss = server_faults.stats();
  const FaultStats cs = client_faults.stats();
  EXPECT_GT(ss.drops + ss.dups + ss.truncates + ss.kills + ss.delays +
                cs.drops + cs.dups + cs.truncates + cs.kills + cs.delays,
            0)
      << "fault rates too low to exercise anything";
  EXPECT_GE(client->stats().reconnects, 1);
  server.Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Kill-the-server soak: full serving-state loss, exact parity after.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, KillServerMidStreamSoakExactParity) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  // One serving generation at a time; a "kill" destroys the Server AND the
  // StreamingService (every session, queue, and score on the server side is
  // gone), then a fresh generation comes up. Clients must rebuild their
  // sessions from their own journals.
  struct Generation {
    std::unique_ptr<StreamingService> service;
    std::unique_ptr<Server> server;
  };
  std::mutex live_mu;
  Server* live = nullptr;
  auto make_generation = [&]() {
    Generation gen;
    gen.service =
        std::make_unique<StreamingService>(causal, PumpedServiceOptions());
    ServerOptions server_options;
    server_options.network = &Data().city.network;
    gen.server = std::make_unique<Server>(gen.service.get(), server_options);
    CAUSALTAD_CHECK(gen.server->Start().ok());
    return gen;
  };
  Generation gen = make_generation();
  {
    std::lock_guard<std::mutex> lock(live_mu);
    live = gen.server.get();
  }
  auto dial = [&live_mu, &live]() {
    std::lock_guard<std::mutex> lock(live_mu);
    return live != nullptr ? live->AddLoopbackConnection() : -1;
  };

  constexpr int kProducers = 3;
  std::vector<std::vector<size_t>> assigned(kProducers);
  for (size_t i = 0; i < trips.size(); ++i) {
    assigned[i % kProducers].push_back(i);
  }
  std::vector<std::vector<std::vector<double>>> got(kProducers);
  std::vector<std::string> errors(kProducers);
  std::atomic<int64_t> total_reconnects{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ClientOptions options;
      options.reconnect = true;
      options.client_id = 100 + static_cast<uint64_t>(p);
      options.max_inflight = 16;
      options.max_reconnect_attempts = 64;
      options.reconnect_base_ms = 2.0;
      options.reconnect_max_ms = 100.0;
      options.timeout_ms = 60000.0;
      options.dialer = dial;
      int fd = -1;
      while ((fd = dial()) < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      auto client = Client::FromFd(fd, options);
      if (!client->Hello().ok()) {
        errors[p] = "hello: " + client->status().ToString();
        return;
      }
      for (const size_t i : assigned[p]) {
        const auto& segments = trips[i].route.segments;
        const uint64_t id = client->Begin(segments.front(), segments.back(),
                                          trips[i].time_slot);
        for (const auto segment : segments) {
          if (!client->Push(id, segment).ok()) {
            errors[p] =
                "push trip " + std::to_string(i) + ": " +
                client->status().ToString();
            return;
          }
          // Pace the stream so the kill cycles land mid-trip.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const auto scores = client->Finish(id);
        if (!scores.ok()) {
          errors[p] = "finish trip " + std::to_string(i) + ": " +
                      scores.status().ToString();
          return;
        }
        got[p].push_back(*scores);
      }
      total_reconnects.fetch_add(client->stats().reconnects);
    });
  }

  for (int cycle = 0; cycle < 3; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live = nullptr;
    }
    gen.server.reset();   // hard kill: every connection dies mid-stream
    gen.service.reset();  // and every serving-side session with it
    gen = make_generation();
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live = gen.server.get();
    }
  }
  for (auto& producer : producers) producer.join();
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_TRUE(errors[p].empty()) << "producer " << p << ": " << errors[p];
    ASSERT_EQ(got[p].size(), assigned[p].size());
    for (size_t j = 0; j < assigned[p].size(); ++j) {
      ExpectScoresMatch(got[p][j], reference[assigned[p][j]],
                        "producer " + std::to_string(p) + " trip " +
                            std::to_string(assigned[p][j]));
    }
  }
  EXPECT_GE(total_reconnects.load(), 1)
      << "no producer ever saw a kill: soak did not exercise recovery";
}

// Regression: a fresh rebuild replays the journaled prefix as ordinary
// pushes, and those are subject to the service's admission backpressure
// like any other push. With a prefix much longer than max_session_pending,
// part of the replay bounces with kSessionFull — and since replayed-prefix
// points are not in `pending` (their scores were already delivered), the
// pre-fix client dropped those rejects as stale. The admission gap then
// bounced every later seq as out_of_order forever: the rebuilt session
// stalled and Finish timed out. The fix tracks replay transmissions per
// seq and re-replays the journal from the rejected gap.
TEST(NetFaultTest, LongPrefixRebuildSurvivesAdmissionBackpressure) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  size_t longest = 0;
  for (size_t i = 1; i < trips.size(); ++i) {
    if (trips[i].route.size() > trips[longest].route.size()) longest = i;
  }
  const auto& segments = trips[longest].route.segments;

  ServiceOptions tight = PumpedServiceOptions();
  tight.num_shards = 1;
  tight.max_session_pending = 2;  // the replayed prefix MUST bounce
  ASSERT_GE(segments.size(),
            4 * static_cast<size_t>(tight.max_session_pending) + 4)
      << "trip too short to overflow the admission window on replay";

  struct Generation {
    std::unique_ptr<StreamingService> service;
    std::unique_ptr<Server> server;
  };
  std::mutex live_mu;
  Server* live = nullptr;
  auto make_generation = [&]() {
    Generation gen;
    gen.service = std::make_unique<StreamingService>(causal, tight);
    ServerOptions server_options;
    server_options.network = &Data().city.network;
    gen.server = std::make_unique<Server>(gen.service.get(), server_options);
    CAUSALTAD_CHECK(gen.server->Start().ok());
    return gen;
  };
  Generation gen = make_generation();
  live = gen.server.get();

  ClientOptions options;
  options.reconnect = true;
  options.client_id = 77;
  options.max_inflight = 64;
  options.max_reconnect_attempts = 32;
  options.reconnect_base_ms = 1.0;
  options.reconnect_max_ms = 20.0;
  options.timeout_ms = 30000.0;
  options.dialer = [&live_mu, &live] {
    std::lock_guard<std::mutex> lock(live_mu);
    return live != nullptr ? live->AddLoopbackConnection() : -1;
  };
  auto client = Client::FromFd(options.dialer(), options);
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();

  const uint64_t id = client->Begin(segments.front(), segments.back(),
                                    trips[longest].time_slot);
  const size_t tail_start = segments.size() - 3;
  std::vector<double> got;
  for (size_t k = 0; k < tail_start; ++k) {
    ASSERT_TRUE(client->Push(id, segments[k]).ok())
        << client->status().ToString();
  }
  // Drain every prefix score so the journal is the ONLY copy of the prefix
  // (the rebuild cannot lean on in-flight go-back-N retransmits).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got.size() < tail_start) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "prefix scores never drained";
    auto polled = client->Poll(id);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    got.insert(got.end(), polled->begin(), polled->end());
  }

  // Kill the whole serving side and bring up a fresh generation: no
  // detached state survives, so the resume is a fresh rebuild that must
  // re-push the entire journaled prefix through the window of 2.
  {
    std::lock_guard<std::mutex> lock(live_mu);
    live = nullptr;
  }
  gen.server.reset();
  gen.service.reset();
  gen = make_generation();
  {
    std::lock_guard<std::mutex> lock(live_mu);
    live = gen.server.get();
  }

  for (size_t k = tail_start; k < segments.size(); ++k) {
    ASSERT_TRUE(client->Push(id, segments[k]).ok())
        << client->status().ToString();
  }
  auto finished = client->Finish(id);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  got.insert(got.end(), finished->begin(), finished->end());
  ExpectScoresMatch(got, reference[longest], "long-prefix rebuild");
  EXPECT_GE(client->stats().reconnects, 1);
  // The rebuild re-pushed the whole journaled prefix at least once.
  EXPECT_GE(client->stats().retransmits, static_cast<int64_t>(tail_start));
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(NetFaultTest, DrainStopsAdmissionAndLetsLiveSessionsFinish) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 4);

  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::FromFd(server.AddLoopbackConnection());
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
  const uint64_t id =
      client->Begin(trip.route.segments.front(), trip.route.segments.back(),
                    trip.time_slot);
  const size_t half = trip.route.size() / 2;
  for (size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(client->Push(id, trip.route.segments[k]).ok());
  }
  // Poll is a barrier: without it Drain() can engage before the server has
  // read the (fire-and-forget) Begin, see a session-less connection, and
  // legitimately kick it. It also moves out any already-delivered scores.
  const auto early = client->Poll(id);
  ASSERT_TRUE(early.ok()) << early.status().ToString();

  std::atomic<bool> drained{false};
  std::thread drainer([&] { drained.store(server.Drain(20000.0)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // New work is refused while draining...
  auto late = Client::FromFd(server.AddLoopbackConnection());
  const bool late_admitted = late->Hello().ok();

  // ...but the live session runs to completion with exact scores.
  util::Status push_status = util::Status::Ok();
  for (size_t k = half; k < trip.route.size() && push_status.ok(); ++k) {
    push_status = client->Push(id, trip.route.segments[k]);
  }
  const auto scores = push_status.ok()
                          ? client->Finish(id)
                          : util::StatusOr<std::vector<double>>(push_status);
  drainer.join();  // before any assert: a joinable thread would terminate()

  EXPECT_FALSE(late_admitted);
  ASSERT_TRUE(push_status.ok()) << push_status.ToString();
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  std::vector<double> all = *early;
  all.insert(all.end(), scores->begin(), scores->end());
  ExpectScoresMatch(all, reference[0], "drained trip");
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(server.stats().connections_active, 0);
  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace causaltad
