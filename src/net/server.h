#ifndef CAUSALTAD_NET_SERVER_H_
#define CAUSALTAD_NET_SERVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/fault.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "roadnet/road_network.h"
#include "serve/session_backend.h"
#include "util/latency_histogram.h"
#include "util/status.h"

namespace causaltad {
namespace net {

/// Wire server knobs. See src/net/README.md for the protocol contract and
/// the failure-semantics section for the resume/heartbeat/drain behavior.
struct ServerOptions {
  /// TCP listen port on listen_host (0 picks an ephemeral port, read it back
  /// via port()); -1 disables the listener — loopback-only servers (tests,
  /// benches) accept connections via AddLoopbackConnection() instead.
  int listen_port = -1;
  std::string listen_host = "127.0.0.1";
  /// Per-tenant auth tokens checked against Hello{tenant, auth_token}. An
  /// EMPTY map runs the server open (any tenant, any token) — tests and
  /// local tools; production fills it.
  std::unordered_map<std::string, std::string> tenant_tokens;
  /// Per-tenant shed quota: a tenant may have at most this many accepted-
  /// but-undelivered points (pushed, not yet returned in a ScoreDelta)
  /// across ALL its connections and sessions. Enforced BEFORE the push
  /// reaches a StreamingService shard; the rejected push is answered with
  /// PushReject{quota}. <= 0 disables.
  int64_t tenant_max_pending = 0;
  /// Road network for input validation: Begin/Push segment ids are bounds-
  /// checked and pushed transitions must be legal successors, so a garbage
  /// producer gets an Error frame instead of CHECK-crashing the fused
  /// decode. nullptr trusts the producers (map-matched feeds only).
  const roadnet::RoadNetwork* network = nullptr;
  /// A connection whose outbound queue exceeds this many bytes (client not
  /// reading its ScoreDeltas) is dropped as a slow consumer.
  size_t max_connection_backlog = 8u << 20;
  /// Idle-peer reaping: a connection that has sent NO bytes (frames or
  /// heartbeat pings) for this long is treated as half-open and closed —
  /// its resumable sessions detach, the rest orphan-drain, so a dead peer
  /// stops pinning quota and shard rows. <= 0 disables.
  double heartbeat_timeout_ms = 0.0;
  /// How long a resumable session whose connection died is retained for
  /// re-adoption (scores keep accruing to its retained history). On expiry
  /// it is ended and orphan-drained like a non-resumable session.
  double detached_linger_ms = 10000.0;
  /// Cap on the per-session retained score history (delivered but not yet
  /// client-acked, plus scores emitted while detached). Overflow silently
  /// revokes the session's resumability instead of growing without bound.
  int64_t max_resume_history = 1 << 16;
  /// Injectable monotonic clock in ms for reaping/linger (tests fake it);
  /// null uses the process steady clock.
  std::function<double()> now_ms;
  /// Deterministic fault injection at the socket read/write boundary (see
  /// net::FaultInjector). nullptr = no faults. Must outlive the server.
  FaultInjector* fault = nullptr;
  /// Admin authorization: Admin frames ("stage:<tag>" / "commit") are
  /// accepted only from connections authed as this tenant. Empty string
  /// disables the admin surface on a token-checked server; an OPEN server
  /// (empty tenant_tokens) with an empty admin_tenant accepts admin from
  /// any authed connection (tests, local tools).
  std::string admin_tenant;
  /// Stage-tag resolver behind the hot model swap: maps an Admin
  /// "stage:<tag>" command to loaded weights. Called on a BACKGROUND
  /// thread — slow weight loading must never stall the event loop; the
  /// stage ack is deferred until the load finishes. Returns nullptr on
  /// failure. Every model it returns must outlive the server AND the
  /// service (generations keep raw pointers). nullptr disables staging.
  std::function<const core::CausalTad*(const std::string&)> model_resolver;
  /// Metrics sink for the server's ops counters and per-frame dispatch
  /// histograms (null = obs::Registry::Default()). A kStats frame is
  /// answered with THIS registry's text exposition, so a backend's scrape
  /// covers the server and (when it shares the registry) its service.
  obs::Registry* registry = nullptr;
  /// Span sink for traced pushes (null = tracing off): a Push carrying a
  /// nonzero trace id gets a "server_dispatch" span here.
  obs::Tracer* tracer = nullptr;
  /// The "where" tag on this server's spans, e.g. "backend=1".
  std::string trace_where = "server";
};

/// Ops counters exported by Server::stats(). Counter fields are cumulative
/// since construction; dispatch_*_ms summarize the frame-dispatch latency
/// histogram (frame decoded -> fully handled, the wire-side cost excluding
/// queue wait inside the service).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t connections_reaped = 0;  // idle peers closed by heartbeat timeout
  int64_t frames_received = 0;
  int64_t frames_sent = 0;
  int64_t bytes_received = 0;
  int64_t bytes_sent = 0;
  int64_t pushes_accepted = 0;
  int64_t duplicate_pushes = 0;  // replayed seqs already accepted (resume)
  int64_t rejected_session_full = 0;
  int64_t rejected_shard_full = 0;
  int64_t rejected_quota = 0;
  int64_t rejected_out_of_order = 0;
  int64_t rejected_shutdown = 0;
  int64_t auth_failures = 0;
  int64_t protocol_errors = 0;
  int64_t heartbeats = 0;          // pings answered
  int64_t sessions_detached = 0;   // resumable sessions parked at disconnect
  int64_t sessions_resumed = 0;    // re-adopted from the detached table
  int64_t sessions_resumed_fresh = 0;  // rebuilt via emit-skip prefix replay
  int64_t sessions_detached_live = 0;  // currently parked
  int64_t models_staged = 0;     // background weight loads completed
  int64_t models_committed = 0;  // staged models flipped live via commit
  /// Frame-dispatch latency merged across the per-frame-type histograms
  /// (the registry exposes each frame type's own percentiles under
  /// server_dispatch_ms{frame="..."}).
  double dispatch_mean_ms = 0.0;
  double dispatch_p50_ms = 0.0;
  double dispatch_p95_ms = 0.0;
  double dispatch_p99_ms = 0.0;
};

/// Wire front-end over a serve::SessionBackend — a StreamingService in this
/// process, or the net::Router's remote fleet: accepts TCP and loopback
/// (socketpair) connections on a small poll(2) event loop — ONE reader
/// thread owns every socket, per-connection write queues drain as peers
/// become writable — and translates frames into backend calls.
///
/// Per-connection session namespaces: the client chooses its session ids,
/// the server maps (connection, client id) -> service SessionId, so
/// independent producers never coordinate id allocation. Tenant auth is the
/// mandatory first frame (Hello); per-tenant shed quotas bound the points a
/// tenant may have in flight before Push ever reaches a shard. Scores are
/// pulled: a Poll frame is always answered with exactly one ScoreDelta
/// (possibly empty), which doubles as the client's ordering barrier.
///
/// Session continuity: a Begin carrying a non-zero resume_key makes the
/// session survive its transport — on disconnect it parks in a detached
/// table (scores keep accruing to a retained, client-acked-pruned history)
/// and a Resume on a later connection re-adopts it, redelivering the
/// unacked history and telling the client which seq to replay from. A
/// Resume that finds no detached state rebuilds the session from the
/// client's journaled prefix through SessionBackend::BeginSessionAt
/// (emit-skip replay). Replayed pushes below the accepted seq are
/// idempotently ignored, so the accepted stream has no gaps or duplicates.
///
/// Score parity is exact relative to driving the StreamingService directly:
/// the server adds no arithmetic, only transport (tests/net_test.cc asserts
/// 1e-6 relative, the float-ULP bound shared with the other serving layers).
///
/// Thread-safety: Start/Stop/Drain/AddLoopbackConnection/stats/port may be
/// called from any thread; all socket and session-map work, and every
/// backend call, happens on the loop thread.
class Server {
 public:
  explicit Server(serve::SessionBackend* backend, ServerOptions options = {});
  /// Calls Stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the TCP listener (when listen_port >= 0) and launches the event
  /// loop thread. Returns an error (and launches nothing) if the bind fails.
  util::Status Start();

  /// Stops the loop, closes every connection, and ends the sessions they
  /// still own (their queued points are still scored by the service, then
  /// drained and discarded). Idempotent; also safe (and still closes any
  /// queued loopback fds) when the server never started.
  void Stop();

  /// Graceful drain: closes the listener, answers new connections, Begins,
  /// and Resumes with Error{shutting_down}, abandons detached sessions
  /// (ending them so the service releases their rows), and lets live
  /// sessions run to completion — a connection is closed once it owns no
  /// sessions. Blocks until everything has drained or timeout_ms elapses
  /// (<= 0 waits forever); returns true when fully drained. Call Stop()
  /// afterwards to join the loop.
  bool Drain(double timeout_ms);

  /// The bound TCP port (valid after a successful Start with a listener).
  int port() const { return port_; }

  /// Creates a connected socketpair, hands one end to the event loop as a
  /// new (unauthenticated) connection, and returns the other end for a
  /// client — the in-process loopback transport used by tests and benches.
  /// The caller owns the returned fd. Safe before or after Start().
  int AddLoopbackConnection();

  ServerStats stats() const;

 private:
  struct SessionState {
    serve::SessionId inner = -1;
    uint64_t expected_seq = 0;  // next client push seq accepted in order
    int64_t delivered = 0;      // cumulative score index delivered so far
    int64_t skip = 0;           // emit-skip base of a fresh-resume rebuild
    uint64_t resume_key = 0;    // 0 = not resumable
    bool ended = false;
    roadnet::SegmentId last = roadnet::kInvalidSegment;
    bool has_last = false;
    // Resumable sessions retain delivered-but-unacked scores for
    // redelivery after reconnect; Poll{offset} acks prune the front.
    std::deque<double> history;
    int64_t history_base = 0;  // cumulative index of history.front()

    /// Scores accepted (or committed to appear) but not yet delivered —
    /// the tenant-quota and orphan-drain unit.
    int64_t Outstanding() const {
      const int64_t deliverable =
          std::max<int64_t>(static_cast<int64_t>(expected_seq), skip);
      return deliverable - delivered;
    }
  };

  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::vector<uint8_t> wbuf;
    size_t woff = 0;
    bool authed = false;
    bool closing = false;  // flush wbuf, then close; reads stop
    double last_activity_ms = 0.0;
    std::string tenant;
    std::shared_ptr<FaultConnection> fault;
    std::unordered_map<uint64_t, SessionState> sessions;
  };

  /// A session whose connection died before its scores drained: the loop
  /// keeps polling it so the service can forget it (and the tenant's quota
  /// is given back as the remaining scores surface).
  struct Orphan {
    serve::SessionId inner = -1;
    std::string tenant;
    int64_t remaining = 0;  // outstanding scores at disconnect
  };

  /// A resumable session parked between connections, keyed by
  /// (tenant, resume_key). The loop keeps polling it into its history so a
  /// reconnecting client can be caught up exactly.
  struct Detached {
    SessionState state;
    std::string tenant;
    double detached_at_ms = 0.0;
  };

  void Loop();
  double NowMs() const;
  void AdoptPending(double now);
  void AcceptTcp(double now);
  void ReadConnection(Connection* conn, double now);
  void HandleFrame(Connection* conn, const Frame& frame);
  void HandleHello(Connection* conn, const Frame& frame);
  void HandleBegin(Connection* conn, const Frame& frame);
  void HandlePush(Connection* conn, const Frame& frame);
  void HandleEnd(Connection* conn, const Frame& frame);
  void HandlePoll(Connection* conn, const Frame& frame);
  void HandleResume(Connection* conn, const Frame& frame);
  void HandleHeartbeat(Connection* conn, const Frame& frame);
  void HandleAdmin(Connection* conn, const Frame& frame);
  /// kStats scrape: answered with an AdminAck carrying the registry's text
  /// exposition (same authorization gate as Admin).
  void HandleStats(Connection* conn, const Frame& frame);
  /// Delivers deferred stage acks once the background load settles.
  void PumpStaging();
  void SendAdminAck(Connection* conn, uint64_t token, AdminStatus status,
                    const std::string& message);
  void SendFrame(Connection* conn, const Frame& frame);
  void SendError(Connection* conn, ErrorCode code, const std::string& message);
  void SendReject(Connection* conn, const Frame& push, RejectReason reason);
  /// Sends the session's score backlog as offset-stamped, chunked deltas;
  /// only the last chunk echoes `token`. The send may close the connection
  /// (and clear its session map) — callers must re-check conn->fd.
  void SendScoreChunks(Connection* conn, uint64_t session_id,
                       const std::vector<double>& scores, int64_t base,
                       uint64_t token);
  bool FlushWrites(Connection* conn);
  void CloseConnection(Connection* conn);
  void DrainOrphans();
  void DrainDetached(double now);
  /// Ends + orphan-drains a formerly-resumable session (linger expiry,
  /// history overflow, or drain).
  void AbandonDetachedLocked(Detached* detached);
  void MaybeForgetSession(Connection* conn, uint64_t id);
  /// True when the backend can no longer deliver what `state` is owed.
  bool SessionLost(const SessionState& state);
  /// Refuses a just-begun session no backend could place: ends it, sends
  /// Error{shutting_down} and closes the connection. True when refused.
  bool RefuseIfLost(Connection* conn, const SessionState& state);
  /// Ends a lost session, gives its quota back, and sends the client an
  /// Error that makes it reconnect and rebuild the session by Resume.
  void DropLostSession(Connection* conn, uint64_t id);
  int64_t* TenantPending(const std::string& tenant);
  static std::string DetachedKey(const std::string& tenant,
                                 uint64_t resume_key);

  serve::SessionBackend* backend_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = -1;
  int wake_fds_[2] = {-1, -1};  // loop wakeup pipe: [read, write]
  std::thread loop_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  std::mutex lifecycle_mu_;  // Start/Stop/AddLoopbackConnection

  std::mutex pending_mu_;
  std::vector<int> pending_fds_;  // loopback ends awaiting adoption

  // Loop-thread state.
  std::vector<std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::string, int64_t> tenant_pending_;
  std::deque<Orphan> orphans_;
  std::unordered_map<std::string, Detached> detached_;

  // Model staging (hot swap). stage_state_ is the publication point: the
  // background worker fills staged_model_ / stage_error_ then stores
  // kStageReady/kStageFailed with release; the loop thread reads the state
  // with acquire before touching either. Everything else is loop-only.
  enum StageState { kStageIdle = 0, kStageLoading, kStageReady, kStageFailed };
  std::atomic<int> stage_state_{kStageIdle};
  std::thread stage_worker_;
  std::string stage_tag_;
  const core::CausalTad* staged_model_ = nullptr;
  std::string stage_error_;
  /// Connections owed a stage ack (deduped on conn+token; CloseConnection
  /// purges its entries so no waiter ever dangles).
  std::vector<std::pair<Connection*, uint64_t>> stage_waiters_;
  /// Replay cache for Admin idempotence: a redelivered/resent Admin whose
  /// token matches the last ack gets that ack again instead of re-running
  /// the command (a duplicate "commit" must not mis-report an error).
  Frame last_admin_ack_;
  bool has_last_admin_ack_ = false;

  // Stats: registry-backed counters (stats() races the loop thread by
  // design; both sides are lock-free atomics). ScopedCounter keeps stats()
  // per-instance; the registry series are process-cumulative.
  obs::Registry* registry_ = nullptr;  // options_.registry or Default()
  obs::ScopedCounter connections_accepted_;
  obs::ScopedGauge connections_active_;
  obs::ScopedCounter connections_reaped_;
  obs::ScopedCounter frames_received_;
  obs::ScopedCounter frames_sent_;
  obs::ScopedCounter bytes_received_;
  obs::ScopedCounter bytes_sent_;
  obs::ScopedCounter pushes_accepted_;
  obs::ScopedCounter duplicate_pushes_;
  obs::ScopedCounter rejected_session_full_;
  obs::ScopedCounter rejected_shard_full_;
  obs::ScopedCounter rejected_quota_;
  obs::ScopedCounter rejected_out_of_order_;
  obs::ScopedCounter rejected_shutdown_;
  obs::ScopedCounter auth_failures_;
  obs::ScopedCounter protocol_errors_;
  obs::ScopedCounter heartbeats_;
  obs::ScopedCounter sessions_detached_;
  obs::ScopedCounter sessions_resumed_;
  obs::ScopedCounter sessions_resumed_fresh_;
  obs::ScopedGauge detached_live_;
  obs::ScopedGauge orphans_live_;
  obs::ScopedCounter models_staged_;
  obs::ScopedCounter models_committed_;
  /// Per-frame-type dispatch latency (frame decoded -> fully handled),
  /// indexed by the FrameType wire value; registered as
  /// server_dispatch_ms{frame="push"} etc. The paired baseline snapshots
  /// keep stats() windowed to this server instance.
  obs::Histogram* dispatch_frame_[15] = {};
  util::LatencyHistogram::Snapshot dispatch_base_[15];
};

}  // namespace net
}  // namespace causaltad

#endif  // CAUSALTAD_NET_SERVER_H_
