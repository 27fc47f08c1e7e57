// Online monitoring over the WIRE, fleet edition: a true client/router/
// backend split inside one process. Two backend servers (each hosting a
// sharded, pumped serve::StreamingService) sit behind a net::Router; the
// client side is a net::Client on a loopback socket, streaming a normal
// trip and a detoured variant of the same trip concurrently and alarming
// while the trips are still in progress.
//
// The example trains CausalTAD, calibrates an alarm threshold from
// held-out normal trips, then runs the client thread: Hello handshake
// (tenant auth), Begin per trip, windowed Push with transparent
// backpressure retries, Poll for scores as the pump threads emit them.
//
// Observability (src/obs/README.md) is wired the way a deployment would:
// every push is trace-sampled, so the shared obs::Tracer holds full span
// chains (client_push_rtt -> router_leg -> server_dispatch -> queue_wait ->
// compute -> emit); at exit one ScrapeStats round trip through the router
// returns the FLEET-WIDE exposition — every backend's series tagged
// backend="<i>" plus the router's own — and the slow-log JSON shows the
// worst chains. CAUSALTAD_METRICS_JSON=<path> additionally streams periodic
// JSON snapshots of the client-side registry to disk.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/threshold.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "traj/anomaly.h"

int main() {
  using namespace causaltad;

  const eval::ExperimentData data =
      eval::BuildExperiment(eval::XianConfig(eval::Scale::kSmoke));

  core::CausalTadConfig model_config;
  model_config.tg.emb_dim = 24;
  model_config.tg.hidden_dim = 32;
  model_config.tg.latent_dim = 16;
  model_config.rp.emb_dim = 16;
  model_config.rp.hidden_dim = 32;
  model_config.rp.latent_dim = 8;
  core::CausalTad model(&data.city.network, model_config);
  models::FitOptions options;
  options.epochs = 5;
  options.lr = 3e-3f;
  std::printf("Training...\n");
  model.Fit(data.train, options);

  // Alarm threshold calibrated for a 5% false-positive rate on held-out
  // normal trips.
  std::vector<double> normal_scores;
  for (const auto& t : data.id_test) {
    normal_scores.push_back(model.ScoreFull(t));
  }
  const double threshold = causaltad::eval::ThresholdAtFpr(normal_scores,
                                                           /*target_fpr=*/0.05);
  std::printf("Alarm threshold (5%% FPR on held-out normals): %.3f\n\n",
              threshold);

  // Pick a test trip and fabricate a detour mid-way.
  const traj::Trip& normal = data.id_test[3];
  traj::AnomalyGenerator anomaly_gen(&data.city.network, /*seed=*/99);
  const auto detour = anomaly_gen.MakeDetour(normal, traj::DetourConfig{});
  if (!detour.has_value()) {
    std::printf("could not fabricate a detour for the demo trip\n");
    return 1;
  }

  // One shared tracer collects spans from every tier; per-backend
  // registries keep each backend's kStats scrape scoped, which is what
  // makes the router's fleet aggregation meaningful.
  obs::Tracer tracer;
  tracer.set_slow_threshold_ms(50.0);
  obs::Registry backend_registry[2];
  obs::Registry router_registry;
  obs::Registry client_registry;
  // Opt-in periodic JSON snapshots (CAUSALTAD_METRICS_JSON=<path>).
  const auto json_writer = obs::PeriodicJsonWriter::FromEnv(&client_registry);

  // BACKENDS: two (service, server) pairs, tenant auth and network
  // validation on, each with its own metrics registry.
  struct Backend {
    std::unique_ptr<serve::StreamingService> service;
    std::unique_ptr<net::Server> server;
  };
  std::vector<Backend> backends(2);
  for (int i = 0; i < 2; ++i) {
    serve::ServiceOptions service_options;
    service_options.num_shards = 2;
    service_options.pump = true;
    service_options.max_session_pending = 8;
    service_options.batcher.max_batch_rows = 32;
    service_options.batcher.max_delay_ms = 1.0;
    service_options.registry = &backend_registry[i];
    service_options.tracer = &tracer;
    backends[i].service =
        std::make_unique<serve::StreamingService>(&model, service_options);

    net::ServerOptions server_options;
    server_options.tenant_tokens = {{"fleet-demo", "s3cret"}};
    server_options.admin_tenant = "fleet-demo";  // scrape authorization
    server_options.network = &data.city.network;
    server_options.registry = &backend_registry[i];
    server_options.tracer = &tracer;
    server_options.trace_where = "backend=" + std::to_string(i);
    backends[i].server = std::make_unique<net::Server>(
        backends[i].service.get(), server_options);
    if (!backends[i].server->Start().ok()) {
      std::printf("backend %d failed to start\n", i);
      return 1;
    }
  }

  // ROUTER: consistent-hash fan-out over the two backends; its upstream
  // legs authenticate with the same tenant, and its admin credentials let
  // ScrapeFleet read each backend's exposition.
  net::RouterOptions router_options;
  router_options.tenant_tokens = {{"fleet-demo", "s3cret"}};
  router_options.upstream.tenant = "fleet-demo";
  router_options.upstream.auth_token = "s3cret";
  router_options.registry = &router_registry;
  router_options.tracer = &tracer;
  std::vector<net::RouterBackend> router_backends(2);
  for (int i = 0; i < 2; ++i) {
    net::Server* server = backends[i].server.get();
    router_backends[i].dialer = [server] {
      return server->AddLoopbackConnection();
    };
  }
  net::Router router(std::move(router_backends), router_options);
  if (!router.Start().ok()) {
    std::printf("router failed to start\n");
    return 1;
  }
  const int client_fd = router.AddLoopbackConnection();

  // CLIENT SIDE: its own thread, talking only the wire protocol — exactly
  // what a non-C++ gateway would do over TCP. Every push is trace-sampled
  // so the exit dump has complete chains to show.
  std::string fleet_exposition;
  bool client_failed = false;  // any client step (Hello .. ScrapeStats)
  std::thread client_thread([&] {
    net::ClientOptions client_options;
    client_options.tenant = "fleet-demo";
    client_options.auth_token = "s3cret";
    client_options.max_inflight = 16;
    client_options.registry = &client_registry;
    client_options.tracer = &tracer;
    client_options.trace_sample_period = 1;
    auto client = net::Client::FromFd(client_fd, client_options);
    if (!client->Hello().ok()) {
      std::printf("client auth failed: %s\n",
                  client->status().ToString().c_str());
      client_failed = true;
      return;
    }

    struct Feed {
      const traj::Trip* trip;
      const char* label;
      uint64_t id = 0;
      size_t fed = 0;
      size_t scored = 0;
      bool alarmed = false;
    };
    std::vector<Feed> feeds = {{&normal, "NORMAL  "}, {&*detour, "DETOURED"}};
    for (Feed& feed : feeds) {
      const auto& segments = feed.trip->route.segments;
      feed.id = client->Begin(segments.front(), segments.back(),
                              feed.trip->time_slot);
      std::printf("Streaming %s trip (%lld segments) through the router\n",
                  feed.label,
                  static_cast<long long>(feed.trip->route.size()));
    }
    std::printf("\n");

    // Both trips stream concurrently: push the next observed point of each
    // (Push retries backpressure rejects transparently), then drain
    // whatever ScoreDeltas the fleet has for us.
    bool streaming = true;
    while (streaming) {
      streaming = false;
      for (Feed& feed : feeds) {
        const auto& segments = feed.trip->route.segments;
        if (feed.fed < segments.size()) {
          if (!client->Push(feed.id, segments[feed.fed]).ok()) {
            std::printf("push failed: %s\n",
                        client->status().ToString().c_str());
            client_failed = true;
            return;
          }
          ++feed.fed;
        }
        const auto polled = client->Poll(feed.id);
        if (!polled.ok()) {
          std::printf("poll failed: %s\n", polled.status().ToString().c_str());
          client_failed = true;
          return;
        }
        for (const double score : *polled) {
          const bool alarm = score > threshold;
          if (feed.scored % 3 == 0 || (alarm && !feed.alarmed)) {
            std::printf("  %s seg %2lld  score %7.3f %s\n", feed.label,
                        static_cast<long long>(feed.scored), score,
                        alarm && !feed.alarmed ? "  << ALARM" : "");
          }
          if (alarm) feed.alarmed = true;
          ++feed.scored;
        }
        if (feed.fed < segments.size() || feed.scored < segments.size()) {
          streaming = true;
        }
      }
    }
    for (Feed& feed : feeds) {
      if (!feed.alarmed) {
        std::printf("  %s (no alarm raised)\n", feed.label);
      }
      const auto finished = client->Finish(feed.id);
      if (!finished.ok()) {
        std::printf("finish failed: %s\n",
                    finished.status().ToString().c_str());
        client_failed = true;
      }
    }
    const net::ClientStats& cstats = client->stats();
    std::printf(
        "\nClient wire counters:\n"
        "  pushes sent / retransmits  %lld / %lld\n"
        "  polls sent                 %lld\n"
        "  bytes out / in             %lld / %lld\n",
        static_cast<long long>(cstats.pushes_sent),
        static_cast<long long>(cstats.retransmits),
        static_cast<long long>(cstats.polls_sent),
        static_cast<long long>(cstats.bytes_sent),
        static_cast<long long>(cstats.bytes_received));

    // One Stats round trip through the router reads the whole fleet: both
    // backends' series (tagged backend="<i>") plus the router's own.
    if (!client->ScrapeStats(&fleet_exposition).ok()) {
      std::printf("fleet scrape failed: %s\n",
                  client->status().ToString().c_str());
      client_failed = true;
    }
  });
  client_thread.join();

  router.Stop();
  for (Backend& backend : backends) {
    backend.server->Stop();
    backend.service->Shutdown();
  }

  std::printf("\nFleet-wide exposition (one ScrapeStats via the router):\n");
  std::printf("%s", fleet_exposition.c_str());

  std::printf("\nTrace spans recorded: %lld (slow chains over %.0f ms: %lld)\n",
              static_cast<long long>(tracer.recorded()), 50.0,
              static_cast<long long>(tracer.slow_chains()));
  if (tracer.slow_chains() > 0) {
    std::printf("Slow-request log (full span chains):\n%s",
                tracer.SlowLogJson().c_str());
  }
  if (json_writer != nullptr) {
    std::printf("\nPeriodic JSON snapshots written: %lld "
                "(CAUSALTAD_METRICS_JSON)\n",
                static_cast<long long>(json_writer->writes()));
  }
  std::printf("\nSame O(1)-per-point scores as the in-process service — the "
              "wire adds auth, quotas, tracing, and a fleet-wide metrics "
              "plane any producer can scrape.\n");
  return client_failed ? 1 : 0;
}
