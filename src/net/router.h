#ifndef CAUSALTAD_NET_ROUTER_H_
#define CAUSALTAD_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/fault.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/session_backend.h"
#include "util/status.h"

namespace causaltad {
namespace net {

/// One upstream backend the router can place sessions on. Either a TCP
/// endpoint (host/port) or a dial hook (tests point it at a backend
/// Server's AddLoopbackConnection; returning a negative fd means the
/// backend is unreachable right now).
struct RouterBackend {
  std::string host = "127.0.0.1";
  int port = -1;
  std::function<int()> dialer;  // overrides host/port when set
};

/// Router knobs.
struct RouterOptions {
  /// TCP listener port for downstream clients (0 = ephemeral, query via
  /// port()); -1 disables the listener — loopback-only routers (tests)
  /// accept downstream connections via AddLoopbackConnection() instead.
  int listen_port = -1;
  std::string listen_host = "127.0.0.1";

  /// Downstream tenant -> auth token. Empty = open router (any Hello
  /// accepted). This is the router's OWN auth check; upstream legs
  /// authenticate separately with `upstream`'s tenant/token.
  std::unordered_map<std::string, std::string> tenant_tokens;

  /// Template for upstream data legs. `reconnect` is forced on (failover
  /// IS the reconnect machinery landing on a different backend), and
  /// `dialer`/`fault`/`client_id` are overwritten per leg.
  ClientOptions upstream;

  /// Tenant identity for admin control connections (RollSwap) and health
  /// probes that need auth. Empty = reuse `upstream.tenant`.
  std::string admin_tenant;
  std::string admin_token;

  /// Consistent-hash ring: virtual nodes per backend. More vnodes = more
  /// uniform session spread at the cost of a bigger (static) ring.
  int virtual_nodes = 64;

  /// Health checking: every interval the health thread dials each backend,
  /// Hellos, and exchanges one heartbeat. `health_failure_threshold`
  /// consecutive probe failures mark the backend dead (new sessions and
  /// failover dials skip it); one success marks it live again.
  /// interval <= 0 disables the thread (every backend then stays live).
  double health_interval_ms = 25.0;
  int health_failure_threshold = 3;
  double health_timeout_ms = 500.0;

  /// Housekeeping cadence: the router's event loop wakes at least this
  /// often to migrate legs off draining backends and to send upstream
  /// heartbeats.
  double idle_tick_ms = 20.0;

  /// Optional keepalive on idle upstream legs: when > 0, a leg that has
  /// been quiet this long exchanges a heartbeat, which both defeats the
  /// backend's idle reaper and detects a dead backend while no pushes are
  /// flowing (triggering failover early). 0 = off.
  double upstream_heartbeat_ms = 0.0;

  /// Bound on DrainBackend's wait for legs to migrate off.
  double drain_timeout_ms = 10000.0;

  /// Deterministic fault injection on the UPSTREAM legs (the router's
  /// client sockets). nullptr = no faults. Must outlive the router.
  FaultInjector* upstream_fault = nullptr;

  // --- Observability (see src/obs/README.md) ---

  /// Metrics registry the router_* series register into.
  /// Null = obs::Registry::Default().
  obs::Registry* registry = nullptr;
  /// Span sink for forwarded traces: a downstream Push carrying a v4 trace
  /// id gets a router_leg span recorded around its upstream forward, and
  /// the id rides the upstream Push to the backend. Null = spans off (the
  /// trace id is still forwarded).
  obs::Tracer* tracer = nullptr;
  /// `where` tag on this router's spans (distinguishes tiers in a dump).
  std::string trace_where = "router";
  /// Bound on one backend's scrape during a fleet Stats aggregation.
  double scrape_timeout_ms = 2000.0;
};

/// Router counters (point-in-time snapshot via stats()). Connections,
/// resumes and auth failures are the downstream server's counts.
struct RouterStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t sessions_opened = 0;   // downstream Begins placed upstream
  int64_t sessions_resumed = 0;  // downstream Resumes, re-adopted or rebuilt
  int64_t failovers = 0;         // upstream dials that landed off-home
  int64_t migrations = 0;        // drain-triggered Client::Migrate calls
  int64_t upstream_reconnects = 0;  // outages survived by upstream legs
  int64_t dup_scores_dropped = 0;   // upstream redeliveries deduped
  int64_t scores_forwarded = 0;     // scores delivered downstream
  int64_t health_probes = 0;
  int64_t probe_failures = 0;
  int64_t backends_dead = 0;  // currently marked dead
  int64_t swaps_rolled = 0;   // backends stage+commit'ed by RollSwap
  int64_t auth_failures = 0;
  int64_t sessions_live = 0;  // upstream sessions the router still holds
};

/// Multi-backend router: a net::Server whose sessions live on a remote
/// fleet of N backend Servers instead of an in-process StreamingService.
/// Clients connect to it exactly as they would to a single Server, and the
/// same protocol code serves them: tenant auth, detached-session resume,
/// per-frame dispatch histograms.
///
///  * Placement: sessions are consistent-hashed (vnode ring) onto a home
///    backend; the router keeps one upstream net::Client leg per home
///    backend, shared by every session placed there.
///  * Failover: a leg's dialer prefers its home backend and falls through
///    to the next live, non-draining backend — so when a backend dies
///    mid-stream, Client::Recover's journaled prefix replay rebuilds every
///    session on a peer and the downstream score stream continues with no
///    gaps and no duplicates.
///  * Drain: DrainBackend marks a backend ineligible and waits while the
///    event loop Migrate()s its legs off it; UndrainBackend restores
///    eligibility. RollSwap composes admin stage/commit with drains for a
///    zero-downtime fleet-wide model swap.
///
/// Threading: the server's event loop makes every leg call (legs are
/// single-threaded Clients); a health-probe thread marks backends dead or
/// alive. Control-plane calls may come from any thread.
class Router : private serve::SessionBackend {
 public:
  Router(std::vector<RouterBackend> backends, RouterOptions options = {});
  ~Router() override;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the downstream server (binding the listener, if configured)
  /// and the health thread.
  util::Status Start();
  /// Stops the server and the health thread. Live downstream connections
  /// are closed; upstream sessions are left to the backends'
  /// detached-session linger.
  void Stop();

  /// Downstream attach without TCP: returns the client end of a connected
  /// socketpair served by the router's event loop.
  int AddLoopbackConnection() { return server_->AddLoopbackConnection(); }
  int port() const { return server_->port(); }
  int num_backends() const { return static_cast<int>(backends_.size()); }

  /// Health/drain control plane. Out-of-range backends answer false.
  bool BackendAlive(int backend) const;
  bool BackendDraining(int backend) const;
  /// Marks the backend ineligible for new placements and failover dials,
  /// then blocks until every leg has migrated off it (or drain_timeout_ms
  /// expires). Fails fast when no other live backend could absorb the
  /// sessions. The backend stays draining until UndrainBackend.
  util::Status DrainBackend(int backend);
  void UndrainBackend(int backend);

  /// Zero-downtime fleet-wide model swap: for each live backend, stage the
  /// tagged model over an admin connection (blocks until the background
  /// load finishes), drain the backend's sessions onto its peers, commit
  /// the flip, and undrain. Single-backend fleets skip the drain (the
  /// commit itself is safe under load: live sessions finish on the old
  /// model). `tag` is resolved by the backends' model_resolver.
  util::Status RollSwap(const std::string& tag);

  /// Fleet-wide metrics view: scrapes every reachable backend's exposition
  /// over a fresh admin connection, prefixes each of its series with a
  /// backend="<i>" label, and appends the router's own router_* series.
  /// This is what a downstream Stats frame is answered with, so one scrape
  /// of the router reads the whole fleet.
  std::string ScrapeFleet();

  RouterStats stats() const;

 private:
  // One upstream client leg per home backend, owned by the router (not by
  // a downstream connection: a detached session outlives its connection).
  struct Leg {
    Router* router = nullptr;
    int home = -1;     // ring placement this leg was created for
    int current = -1;  // backend the last successful dial landed on
    double last_heartbeat_ms = 0.0;
    int64_t reconnects_folded = 0;  // leg stats already counted
    int64_t dups_folded = 0;
    std::unique_ptr<Client> client;
    ~Leg();
  };
  // A downstream session's upstream half.
  struct FleetSession {
    std::shared_ptr<Leg> leg;  // null: no backend could take the session
    uint64_t up_id = 0;        // session id on the leg
    int64_t drop_scores = 0;   // resume rebuild: upstream prefix to drop
    bool ended = false;
    bool lost = false;  // the upstream half is gone: no more scores
    std::vector<double> tail;  // scores drained by Finish, not yet polled
  };

  // serve::SessionBackend, called on the server's event loop only.
  serve::SessionId BeginSession(roadnet::SegmentId source,
                                roadnet::SegmentId destination,
                                int time_slot) override;
  serve::SessionId BeginSessionAt(roadnet::SegmentId source,
                                  roadnet::SegmentId destination,
                                  int time_slot, int64_t emit_skip) override;
  serve::PushStatus Push(serve::SessionId id, roadnet::SegmentId segment,
                         uint64_t trace_id) override;
  void End(serve::SessionId id) override;
  std::vector<double> Poll(serve::SessionId id) override;
  bool Lost(serve::SessionId id) override;
  bool TakesAdmin() const override;
  bool SwapModel(const core::CausalTad* model) override;
  double Tick() override;
  bool Exposition(std::string* text) override;

  serve::SessionId OpenSession(roadnet::SegmentId source,
                               roadnet::SegmentId destination, int time_slot,
                               int64_t emit_skip);
  void Forget(std::unordered_map<serve::SessionId, FleetSession>::iterator it);
  /// Drops the prefix a resume rebuild replays that the client already has.
  void DropReplayed(FleetSession* s, std::vector<double>* scores);
  /// The live leg for `home`, dialing a fresh one on first use or after the
  /// old one latched a fatal error; null when no backend answers.
  std::shared_ptr<Leg> LegFor(int home);
  /// Drops a fatally failed leg from its slot and from the drain count; its
  /// sessions keep the object until they end.
  void RetireLeg(std::shared_ptr<Leg>* slot);
  void FoldLegStats(Leg* leg);
  /// Refreshes the router_* series that carry the downstream server's
  /// connection, auth-failure and resume counts (every tick and scrape).
  void MirrorServerSeries();
  /// The failover dialer: home backend if eligible, else the next live,
  /// non-draining backend; tries every candidate before giving up.
  int DialUpstream(Leg* leg);
  int DialBackendFd(int backend);
  /// Options for the short-lived admin connections (probes, swaps, scrapes).
  ClientOptions AdminClientOptions(double timeout_ms) const;
  bool Eligible(int backend) const;
  /// Ring owner of `hash` among eligible backends (-1 when none).
  int PickBackend(uint64_t hash) const;
  void MarkDead(int backend, bool dead);

  void HealthMain();
  void ProbeBackend(int backend);

  std::vector<RouterBackend> backends_;
  RouterOptions options_;
  std::vector<std::pair<uint64_t, int>> ring_;  // (point, backend), sorted

  // Shared health/drain view (event loop, health thread, control plane).
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::unique_ptr<std::atomic<bool>[]> draining_;
  std::unique_ptr<std::atomic<int64_t>[]> legs_on_;  // legs per backend
  std::vector<int> probe_failures_consecutive_;  // health thread only

  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread health_thread_;
  std::mutex lifecycle_mu_;
  std::mutex swap_mu_;    // serializes RollSwap
  std::mutex mirror_mu_;  // serializes MirrorServerSeries

  // Event-loop state.
  std::vector<std::shared_ptr<Leg>> legs_;  // by home backend
  std::unordered_map<serve::SessionId, FleetSession> sessions_;
  serve::SessionId next_session_ = 0;
  std::atomic<int64_t> sessions_live_{0};  // sessions_.size(), for stats()
  uint64_t legs_opened_ = 0;
  double last_tick_ms_ = 0.0;

  // Counters (see RouterStats): registry-backed router_* series; the
  // Scoped wrappers keep stats() per-instance when registries are shared.
  // The connection, auth and resume series mirror the downstream server's
  // counts (MirrorServerSeries).
  obs::Registry* registry_ = nullptr;
  obs::ScopedCounter connections_accepted_;
  obs::ScopedGauge connections_active_;
  obs::ScopedCounter sessions_opened_;
  obs::ScopedCounter sessions_resumed_;
  obs::ScopedCounter failovers_;
  obs::ScopedCounter migrations_;
  obs::ScopedCounter upstream_reconnects_;
  obs::ScopedCounter dup_scores_dropped_;
  obs::ScopedCounter scores_forwarded_;
  obs::ScopedCounter health_probes_;
  obs::ScopedCounter probe_failures_;
  obs::ScopedCounter swaps_rolled_;
  obs::ScopedCounter auth_failures_;
  obs::Gauge* backends_dead_gauge_ = nullptr;  // refreshed on probe/scrape

  // The downstream protocol server over this fleet. Its series stay in a
  // private registry, so the fleet view carries router_* series only.
  obs::Registry server_registry_;
  std::unique_ptr<Server> server_;
};

}  // namespace net
}  // namespace causaltad

#endif  // CAUSALTAD_NET_ROUTER_H_
