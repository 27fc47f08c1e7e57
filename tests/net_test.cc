// Wire subsystem tests: frame encode/decode property tests (randomized
// round trips, truncation, oversized and garbage input), end-to-end
// client -> server -> StreamingService score parity over loopback and TCP,
// backpressure/quota rejections observed at the client, tenant auth, and a
// multi-client soak (8 producer threads over one server).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/streaming.h"

namespace causaltad {
namespace {

using core::CausalTad;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using net::Client;
using net::ClientOptions;
using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::PushOutcome;
using net::RejectReason;
using net::Server;
using net::ServerOptions;
using serve::ServiceOptions;
using serve::StreamingBatcher;
using serve::StreamingService;
using serve::StreamingSession;

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

Frame RandomFrame(std::mt19937* rng) {
  std::uniform_int_distribution<int> type_dist(1, 14);
  std::uniform_int_distribution<uint64_t> u64;
  std::uniform_int_distribution<int32_t> i32(-2, 1 << 20);
  std::uniform_int_distribution<int> len(0, 2048);
  std::uniform_real_distribution<double> f64(-1e6, 1e6);
  auto random_string = [&](int max_len) {
    std::string s(len(*rng) % (max_len + 1), '\0');
    for (char& c : s) c = static_cast<char>(u64(*rng) & 0xff);
    return s;
  };
  Frame frame;
  frame.type = static_cast<FrameType>(type_dist(*rng));
  switch (frame.type) {
    case FrameType::kHello:
      frame.tenant = random_string(512);
      frame.auth_token = random_string(512);
      break;
    case FrameType::kBegin:
      frame.session = u64(*rng);
      frame.source = i32(*rng);
      frame.destination = i32(*rng);
      frame.time_slot = i32(*rng);
      frame.resume_key = u64(*rng);
      break;
    case FrameType::kPush:
      frame.session = u64(*rng);
      frame.seq = u64(*rng);
      frame.wire_seq = u64(*rng);
      frame.segment = i32(*rng);
      // Half the pushes carry the optional v4 trace extension.
      if (u64(*rng) % 2 == 0) frame.trace_id = u64(*rng) | 1;
      break;
    case FrameType::kEnd:
      frame.session = u64(*rng);
      break;
    case FrameType::kPoll:
      frame.session = u64(*rng);
      frame.token = u64(*rng);
      frame.offset = u64(*rng);
      break;
    case FrameType::kScoreDelta: {
      frame.session = u64(*rng);
      frame.token = u64(*rng);
      frame.offset = u64(*rng);
      frame.scores.resize(len(*rng));
      for (double& s : frame.scores) s = f64(*rng);
      break;
    }
    case FrameType::kPushReject:
      frame.session = u64(*rng);
      frame.seq = u64(*rng);
      frame.wire_seq = u64(*rng);
      frame.reason = static_cast<RejectReason>(1 + (u64(*rng) % 5));
      break;
    case FrameType::kError:
      frame.code = static_cast<ErrorCode>(1 + (u64(*rng) % 7));
      frame.message = random_string(1024);
      break;
    case FrameType::kResume:
      frame.session = u64(*rng);
      frame.resume_key = u64(*rng);
      frame.source = i32(*rng);
      frame.destination = i32(*rng);
      frame.time_slot = i32(*rng);
      frame.offset = u64(*rng);
      break;
    case FrameType::kResumeAck:
      frame.session = u64(*rng);
      frame.offset = u64(*rng);
      break;
    case FrameType::kHeartbeat:
      frame.token = u64(*rng);
      frame.seq = u64(*rng) % 2;
      break;
    case FrameType::kAdmin:
      frame.token = u64(*rng);
      frame.message = random_string(1024);
      break;
    case FrameType::kAdminAck:
      frame.token = u64(*rng);
      frame.seq = u64(*rng) % 3;
      frame.message = random_string(1024);
      break;
    case FrameType::kStats:
      frame.token = u64(*rng);
      break;
  }
  return frame;
}

void ExpectFrameEq(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.session, want.session);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.wire_seq, want.wire_seq);
  EXPECT_EQ(got.token, want.token);
  EXPECT_EQ(got.offset, want.offset);
  EXPECT_EQ(got.resume_key, want.resume_key);
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_EQ(got.segment, want.segment);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.destination, want.destination);
  EXPECT_EQ(got.time_slot, want.time_slot);
  EXPECT_EQ(got.tenant, want.tenant);
  EXPECT_EQ(got.auth_token, want.auth_token);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (size_t i = 0; i < got.scores.size(); ++i) {
    EXPECT_EQ(got.scores[i], want.scores[i]) << "score " << i;
  }
}

TEST(FrameTest, RandomizedRoundTripInRandomChunks) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 50; ++round) {
    // A batch of random frames through one stream, fed in random chunks.
    std::vector<Frame> frames;
    std::vector<uint8_t> bytes;
    const int count = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < count; ++i) {
      frames.push_back(RandomFrame(&rng));
      EncodeFrame(frames.back(), &bytes);
    }
    FrameDecoder decoder;
    size_t fed = 0;
    std::vector<Frame> decoded;
    while (fed < bytes.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng() % 97, bytes.size() - fed);
      decoder.Feed(bytes.data() + fed, chunk);
      fed += chunk;
      Frame frame;
      while (decoder.Next(&frame)) decoded.push_back(frame);
      ASSERT_TRUE(decoder.status().ok()) << decoder.status().ToString();
    }
    ASSERT_EQ(decoded.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      ExpectFrameEq(decoded[i], frames[i]);
    }
  }
}

TEST(FrameTest, EveryTruncationWaitsCleanly) {
  std::mt19937 rng(77);
  for (int round = 0; round < 16; ++round) {
    std::vector<uint8_t> bytes;
    const Frame frame = RandomFrame(&rng);
    EncodeFrame(frame, &bytes);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      FrameDecoder decoder;
      decoder.Feed(bytes.data(), cut);
      Frame out;
      EXPECT_FALSE(decoder.Next(&out)) << "cut=" << cut;
      EXPECT_TRUE(decoder.status().ok()) << "cut=" << cut;  // just waiting
      // The remainder completes the frame.
      decoder.Feed(bytes.data() + cut, bytes.size() - cut);
      ASSERT_TRUE(decoder.Next(&out)) << "cut=" << cut;
      ExpectFrameEq(out, frame);
    }
  }
}

TEST(FrameTest, MaxLengthPayloadRoundTripsAndOversizedFails) {
  // Header: version u8 + type u8 + session u64 + token u64 + offset u64 +
  // count u32.
  const size_t max_scores = (net::kMaxFramePayload - 30) / sizeof(double);
  Frame frame;
  frame.type = FrameType::kScoreDelta;
  frame.session = 7;
  frame.token = 9;
  frame.scores.assign(max_scores, 0.5);
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_TRUE(decoder.Next(&out)) << decoder.status().ToString();
  EXPECT_EQ(out.scores.size(), max_scores);

  // One more score pushes the payload over the cap: the decoder must fail
  // fast on the length prefix, not buffer or allocate the oversized frame.
  frame.scores.push_back(0.5);
  bytes.clear();
  EncodeFrame(frame, &bytes);
  FrameDecoder oversized;
  oversized.Feed(bytes.data(), bytes.size());
  EXPECT_FALSE(oversized.Next(&out));
  EXPECT_FALSE(oversized.status().ok());
}

TEST(FrameTest, MalformedFramesFailCleanly) {
  {
    // Unknown version.
    std::vector<uint8_t> bytes = {3, 0, 0, 0, 99, 4, 0};
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.status().ok());
  }
  {
    // Unknown type.
    std::vector<uint8_t> bytes = {2, 0, 0, 0, net::kWireVersion, 42};
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.status().ok());
  }
  {
    // Truncated payload: an End frame whose session field is cut short.
    std::vector<uint8_t> bytes = {5, 0, 0, 0, net::kWireVersion,
                                  static_cast<uint8_t>(FrameType::kEnd), 1,
                                  2, 3};
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.status().ok());
  }
  {
    // Trailing garbage after a valid End payload.
    std::vector<uint8_t> bytes = {11, 0, 0, 0, net::kWireVersion,
                                  static_cast<uint8_t>(FrameType::kEnd),
                                  1, 0, 0, 0, 0, 0, 0, 0, 0xee};
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.status().ok());
  }
  {
    // A string length that overruns the payload (Hello with a lying tenant
    // length) must not over-read.
    std::vector<uint8_t> bytes = {8, 0, 0, 0, net::kWireVersion,
                                  static_cast<uint8_t>(FrameType::kHello),
                                  0xff, 0xff, 0xff, 0x7f, 'h', 'i'};
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.status().ok());
  }
  {
    // Random garbage with a bounded length prefix: never crashes, either
    // waits for more bytes or reports a clean error.
    std::mt19937 rng(5);
    for (int round = 0; round < 200; ++round) {
      std::vector<uint8_t> bytes(4 + rng() % 128);
      for (auto& b : bytes) b = static_cast<uint8_t>(rng());
      const uint32_t small_len = rng() % 64;
      std::memcpy(bytes.data(), &small_len, sizeof(small_len));
      FrameDecoder decoder;
      decoder.Feed(bytes.data(), bytes.size());
      Frame out;
      while (decoder.Next(&out)) {
      }
      // Reaching here without asan/ubsan complaints is the assertion.
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: client -> server -> StreamingService.
// ---------------------------------------------------------------------------

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

/// Reference scores from one single-consumer StreamingBatcher (the same
/// arithmetic the service and the wire path must reproduce).
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

TEST(NetTest, WireParityWithDirectServiceOverLoopback) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.max_inflight = 24;  // small window: drains interleave
  auto client = Client::FromFd(server.AddLoopbackConnection(),
                               client_options);
  ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();

  // All trips stream concurrently through one connection, one point per
  // session per sweep — the service's backpressure engages against the
  // small service bounds and the client retries transparently.
  std::vector<uint64_t> ids;
  for (const auto& trip : trips) {
    ids.push_back(client->Begin(trip.route.segments.front(),
                                trip.route.segments.back(), trip.time_slot));
  }
  size_t remaining = trips.size();
  std::vector<size_t> fed(trips.size(), 0);
  while (remaining > 0) {
    remaining = 0;
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& segments = trips[i].route.segments;
      if (fed[i] >= segments.size()) continue;
      ASSERT_TRUE(client->Push(ids[i], segments[fed[i]]).ok())
          << client->status().ToString();
      if (++fed[i] < segments.size()) ++remaining;
    }
  }
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto scores = client->Finish(ids[i]);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ASSERT_EQ(scores->size(), reference[i].size()) << "trip " << i;
    for (size_t k = 0; k < reference[i].size(); ++k) {
      EXPECT_NEAR((*scores)[k], reference[i][k], Tol(reference[i][k]))
          << "trip=" << i << " k=" << k + 1;
    }
  }

  const net::ServerStats stats = server.stats();
  int64_t points = 0;
  for (const auto& trip : trips) points += trip.route.size();
  EXPECT_EQ(stats.pushes_accepted, points);
  EXPECT_GT(stats.frames_received, points);  // + polls/begins/ends
  EXPECT_EQ(stats.auth_failures, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
  server.Stop();
  service.Shutdown();
}

TEST(NetTest, BackpressureObservableAtClient) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 4);

  ServiceOptions options;
  options.num_shards = 1;
  options.pump = false;  // nothing drains: rejections are deterministic
  options.max_session_pending = 2;
  StreamingService service(causal, options);
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::FromFd(server.AddLoopbackConnection());
  ASSERT_TRUE(client->Hello().ok());

  const uint64_t id = client->Begin(trip.route.segments.front(),
                                    trip.route.segments.back(),
                                    trip.time_slot);
  const auto& segments = trip.route.segments;
  auto outcome = client->TryPush(id, segments[0]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kAccepted);
  outcome = client->TryPush(id, segments[1]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kAccepted);
  // The session is at the service's per-session bound.
  outcome = client->TryPush(id, segments[2]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kSessionFull);

  // Draining the shard reopens admission, and the once-rejected point can
  // be pushed again (TryPush released its seq).
  service.Flush();
  auto drained = client->Poll(id);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 2u);
  outcome = client->TryPush(id, segments[2]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kAccepted);
  service.Flush();
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 1u);  // Finish returns what Poll had not taken

  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_session_full, 1);
}

TEST(NetTest, TenantQuotaEnforcedBeforeShard) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 5);

  ServiceOptions options;
  options.num_shards = 1;
  options.pump = false;  // scores only exist once we Flush
  StreamingService service(causal, options);
  ServerOptions server_options;
  server_options.tenant_max_pending = 3;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::FromFd(server.AddLoopbackConnection());
  ASSERT_TRUE(client->Hello().ok());

  const uint64_t id = client->Begin(trip.route.segments.front(),
                                    trip.route.segments.back(),
                                    trip.time_slot);
  for (int k = 0; k < 3; ++k) {
    const auto outcome = client->TryPush(id, trip.route.segments[k]);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(*outcome, PushOutcome::kAccepted) << "k=" << k;
  }
  // The tenant has 3 undelivered points: the quota rejects before the
  // service ever sees the push.
  auto outcome = client->TryPush(id, trip.route.segments[3]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kQuota);
  EXPECT_EQ(server.stats().rejected_quota, 1);
  EXPECT_EQ(server.stats().pushes_accepted, 3);

  // Delivering the scores returns quota headroom.
  service.Flush();
  const auto drained = client->Poll(id);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 3u);
  outcome = client->TryPush(id, trip.route.segments[3]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PushOutcome::kAccepted);
}

TEST(NetTest, AuthTokenRequiredWhenConfigured) {
  const CausalTad* causal = FittedCausal();
  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.tenant_tokens = {{"acme", "sesame"}};
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  {
    ClientOptions bad;
    bad.tenant = "acme";
    bad.auth_token = "wrong";
    auto client = Client::FromFd(server.AddLoopbackConnection(), bad);
    const util::Status status = client->Hello();
    EXPECT_FALSE(status.ok());
  }
  {
    ClientOptions unknown;
    unknown.tenant = "evil-corp";
    unknown.auth_token = "sesame";
    auto client = Client::FromFd(server.AddLoopbackConnection(), unknown);
    EXPECT_FALSE(client->Hello().ok());
  }
  {
    // Skipping Hello entirely: the first Poll is answered with an Error.
    auto client = Client::FromFd(server.AddLoopbackConnection());
    client->Begin(0, 1, 0);
    const auto polled = client->Poll(0);
    EXPECT_FALSE(polled.ok());
  }
  {
    ClientOptions good;
    good.tenant = "acme";
    good.auth_token = "sesame";
    auto client = Client::FromFd(server.AddLoopbackConnection(), good);
    EXPECT_TRUE(client->Hello().ok());
  }
  EXPECT_GE(server.stats().auth_failures, 3);
}

// Two servers on one registry: every dispatch figure in stats() is windowed
// to its own instance. B, built after A dispatched its frames, reads 0 for
// the mean exactly as it does for the percentiles.
TEST(NetTest, DispatchStatsArePerInstanceOnSharedRegistry) {
  const CausalTad* causal = FittedCausal();
  StreamingService service(causal, PumpedServiceOptions());
  obs::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server a(&service, options);
  ASSERT_TRUE(a.Start().ok());
  {
    const auto trips = ParityTrips();
    const traj::Trip& trip = trips[0];
    auto client = Client::FromFd(a.AddLoopbackConnection());
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(client->Heartbeat().ok());
    const uint64_t id = client->Begin(trip.route.segments.front(),
                                      trip.route.segments.back(),
                                      trip.time_slot);
    for (const auto segment : trip.route.segments) {
      ASSERT_TRUE(client->Push(id, segment).ok());
    }
    ASSERT_TRUE(client->Finish(id).ok()) << client->status().ToString();
  }
  a.Stop();  // joins A's loop: every dispatch it made is recorded
  Server b(&service, options);
  ASSERT_TRUE(b.Start().ok());
  const net::ServerStats sa = a.stats();
  const net::ServerStats sb = b.stats();
  EXPECT_GT(sa.dispatch_mean_ms, 0.0);
  EXPECT_GT(sa.dispatch_p50_ms, 0.0);
  EXPECT_EQ(sb.dispatch_p50_ms, 0.0);
  EXPECT_EQ(sb.dispatch_mean_ms, 0.0);
  b.Stop();
  service.Shutdown();
}

TEST(NetTest, InvalidTransitionGetsErrorNotCrash) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::FromFd(server.AddLoopbackConnection());
  ASSERT_TRUE(client->Hello().ok());

  const uint64_t id = client->Begin(trip.route.segments.front(),
                                    trip.route.segments.back(),
                                    trip.time_slot);
  auto outcome = client->TryPush(id, trip.route.segments[0]);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(*outcome, PushOutcome::kAccepted);
  // Feed a segment that is NOT a successor of the previous one: the server
  // must answer with an Error frame (and survive) instead of CHECK-crashing
  // in the fused decode.
  const roadnet::SegmentId bogus = trip.route.segments[0];  // self-loop
  outcome = client->TryPush(id, bogus);
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(client->status().ok());
  // The server is still alive for new connections.
  auto fresh = Client::FromFd(server.AddLoopbackConnection());
  EXPECT_TRUE(fresh->Hello().ok());
}

TEST(NetTest, TcpParitySmoke) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);
  StreamingService service(causal, PumpedServiceOptions());
  ServerOptions server_options;
  server_options.listen_port = 0;  // ephemeral
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto connected = Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).value();
  ASSERT_TRUE(client->Hello().ok());
  const traj::Trip& trip = trips[0];
  const uint64_t id = client->Begin(trip.route.segments.front(),
                                    trip.route.segments.back(),
                                    trip.time_slot);
  for (const auto segment : trip.route.segments) {
    ASSERT_TRUE(client->Push(id, segment).ok());
  }
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), reference[0].size());
  for (size_t k = 0; k < reference[0].size(); ++k) {
    EXPECT_NEAR((*scores)[k], reference[0][k], Tol(reference[0][k]));
  }
}

TEST(NetTest, LargeScoreBacklogStreamsInChunkedDeltas) {
  const CausalTad* causal = FittedCausal();
  const roadnet::RoadNetwork& network = Data().city.network;
  const auto trips = ParityTrips();

  // A long map-matched walk (always the first legal successor), so one
  // session can build a score backlog larger than a single ScoreDelta
  // frame may carry (kMaxFramePayload / 8 ≈ 131k scores is the hard wire
  // cap; the server chunks at 8192).
  constexpr size_t kPoints = 9000;
  std::vector<roadnet::SegmentId> walk;
  walk.push_back(trips[0].route.segments.front());
  while (walk.size() < kPoints) {
    const auto successors = network.Successors(walk.back());
    ASSERT_FALSE(successors.empty());
    walk.push_back(successors.front());
  }

  ServiceOptions options;
  options.num_shards = 1;
  options.pump = true;
  options.max_session_pending = 0;  // let the backlog build
  options.max_shard_queued = 0;
  StreamingService service(causal, options);
  ServerOptions server_options;
  server_options.network = &network;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.max_inflight = 1 << 20;  // never poll mid-feed
  auto client = Client::FromFd(server.AddLoopbackConnection(),
                               client_options);
  ASSERT_TRUE(client->Hello().ok());

  const uint64_t id = client->Begin(walk.front(), walk.back(), 0);
  for (const auto segment : walk) {
    ASSERT_TRUE(client->Push(id, segment).ok())
        << client->status().ToString();
  }
  // Wait for the pump to score everything, so the FIRST Poll must return
  // the whole backlog — which only a chunked delta stream can deliver.
  while (service.stats().points_scored <
         static_cast<int64_t>(kPoints)) {
    std::this_thread::yield();
  }
  const auto scores = client->Finish(id);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->size(), kPoints);  // nothing lost, decoder never poisoned
  EXPECT_TRUE(client->status().ok());
}

TEST(NetTest, EightClientSoakOverOneServer) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  ServiceOptions options = PumpedServiceOptions();
  options.max_session_pending = 4;  // keep backpressure engaged
  StreamingService service(causal, options);
  ServerOptions server_options;
  server_options.network = &Data().city.network;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::vector<std::vector<std::vector<double>>> scores(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions client_options;
      client_options.max_inflight = 16;
      auto client = Client::FromFd(server.AddLoopbackConnection(),
                                   client_options);
      if (!client->Hello().ok()) {
        errors[c] = client->status().ToString();
        return;
      }
      scores[c].resize(trips.size());
      // Each client streams every parity trip end to end.
      for (size_t i = 0; i < trips.size(); ++i) {
        const auto& segments = trips[i].route.segments;
        const uint64_t id = client->Begin(segments.front(), segments.back(),
                                          trips[i].time_slot);
        for (const auto segment : segments) {
          const util::Status status = client->Push(id, segment);
          if (!status.ok()) {
            errors[c] = status.ToString();
            return;
          }
        }
        auto finished = client->Finish(id);
        if (!finished.ok()) {
          errors[c] = finished.status().ToString();
          return;
        }
        scores[c][i] = *std::move(finished);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(errors[c], "") << "client " << c;
    for (size_t i = 0; i < trips.size(); ++i) {
      ASSERT_EQ(scores[c][i].size(), reference[i].size())
          << "client=" << c << " trip=" << i;
      for (size_t k = 0; k < reference[i].size(); ++k) {
        EXPECT_NEAR(scores[c][i][k], reference[i][k], Tol(reference[i][k]))
            << "client=" << c << " trip=" << i << " k=" << k + 1;
      }
    }
  }
  // No lost or duplicated deltas anywhere: every accepted push produced
  // exactly one score, every client received exactly its own streams.
  int64_t points = 0;
  for (const auto& trip : trips) points += trip.route.size();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.pushes_accepted, kClients * points);
  EXPECT_EQ(stats.protocol_errors, 0);
  server.Stop();
  service.Shutdown();
  const serve::ServiceStats service_stats = service.stats();
  EXPECT_EQ(service_stats.points_scored, kClients * points);
}

}  // namespace
}  // namespace causaltad
