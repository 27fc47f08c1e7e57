#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "net/socket_io.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace causaltad {
namespace net {
namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Scores per ScoreDelta frame: 64 KiB of payload, far under the 1 MiB
// frame cap, so a session's unpolled backlog of any size streams back as a
// sequence of decodable frames.
constexpr size_t kMaxScoresPerDelta = 8192;

}  // namespace

Server::Server(serve::SessionBackend* backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {
  CAUSALTAD_CHECK(backend != nullptr);
  registry_ =
      options_.registry != nullptr ? options_.registry : obs::Registry::Default();
  connections_accepted_.Bind(registry_, "server_connections_accepted_total");
  connections_active_.Bind(registry_, "server_connections_active");
  connections_reaped_.Bind(registry_, "server_connections_reaped_total");
  frames_received_.Bind(registry_, "server_frames_received_total");
  frames_sent_.Bind(registry_, "server_frames_sent_total");
  bytes_received_.Bind(registry_, "server_bytes_received_total");
  bytes_sent_.Bind(registry_, "server_bytes_sent_total");
  pushes_accepted_.Bind(registry_, "server_pushes_accepted_total");
  duplicate_pushes_.Bind(registry_, "server_duplicate_pushes_total");
  rejected_session_full_.Bind(registry_,
                              "server_rejected_session_full_total");
  rejected_shard_full_.Bind(registry_, "server_rejected_shard_full_total");
  rejected_quota_.Bind(registry_, "server_rejected_quota_total");
  rejected_out_of_order_.Bind(registry_,
                              "server_rejected_out_of_order_total");
  rejected_shutdown_.Bind(registry_, "server_rejected_shutdown_total");
  auth_failures_.Bind(registry_, "server_auth_failures_total");
  protocol_errors_.Bind(registry_, "server_protocol_errors_total");
  heartbeats_.Bind(registry_, "server_heartbeats_total");
  sessions_detached_.Bind(registry_, "server_sessions_detached_total");
  sessions_resumed_.Bind(registry_, "server_sessions_resumed_total");
  sessions_resumed_fresh_.Bind(registry_,
                               "server_sessions_resumed_fresh_total");
  detached_live_.Bind(registry_, "server_sessions_detached_live");
  orphans_live_.Bind(registry_, "server_orphans_live");
  models_staged_.Bind(registry_, "server_models_staged_total");
  models_committed_.Bind(registry_, "server_models_committed_total");
  for (uint8_t t = 1; t <= 14; ++t) {
    dispatch_frame_[t] = registry_->GetHistogram(
        "server_dispatch_ms",
        {{"frame", FrameTypeName(static_cast<FrameType>(t))}});
    dispatch_base_[t] = dispatch_frame_[t]->raw()->TakeSnapshot();
  }
}

Server::~Server() { Stop(); }

double Server::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Server::DetachedKey(const std::string& tenant,
                                uint64_t resume_key) {
  return tenant + '/' + std::to_string(resume_key);
}

util::Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return util::Status::FailedPrecondition("already started");
  if (options_.listen_port >= 0) {
    util::StatusOr<int> listener =
        ListenTcp(options_.listen_host, options_.listen_port, &port_);
    if (!listener.ok()) return listener.status();
    listen_fd_ = *listener;
  }
  if (pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    const std::string err = std::strerror(errno);
    if (listen_fd_ >= 0) close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError("pipe2 failed: " + err);
  }
  started_ = true;
  stop_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return util::Status::Ok();
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    stop_.store(true, std::memory_order_release);
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
    if (loop_.joinable()) loop_.join();
    // Loop has exited: close everything it owned and end the sessions the
    // dead connections still held, so the service releases their rows.
    for (auto& conn : connections_) {
      if (conn->fd >= 0) CloseConnection(conn.get());
    }
    connections_.clear();
    connections_active_.Set(0);
    // Detached sessions cannot outlive the server: end them so the service
    // releases their rows, then drain like any other orphan.
    for (auto& [key, detached] : detached_) AbandonDetachedLocked(&detached);
    detached_.clear();
    detached_live_.Set(0);
    // Best-effort orphan drain of scores already emitted (no waiting: the
    // service may keep scoring queued points after we return).
    DrainOrphans();
    // A stage still loading finishes into the void (its waiters' acks are
    // moot); the worker must be joined before the server is destroyed.
    if (stage_worker_.joinable()) stage_worker_.join();
    stage_waiters_.clear();
    if (listen_fd_ >= 0) close(listen_fd_);
    listen_fd_ = -1;
    close(wake_fds_[0]);
    close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    started_ = false;
  }
  // ALWAYS reap queued loopback ends — including fds pushed before Start()
  // or after Stop(), which the early-return path used to leak.
  {
    std::lock_guard<std::mutex> pending_lock(pending_mu_);
    for (const int fd : pending_fds_) close(fd);
    pending_fds_.clear();
  }
}

bool Server::Drain(double timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return true;
    draining_.store(true, std::memory_order_release);
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }
  util::Stopwatch watch;
  while (true) {
    bool pending_empty;
    {
      std::lock_guard<std::mutex> pending_lock(pending_mu_);
      pending_empty = pending_fds_.empty();
    }
    const bool drained =
        pending_empty &&
        connections_active_.value() == 0 &&
        detached_live_.value() == 0 &&
        orphans_live_.value() == 0;
    if (drained) return true;
    if (timeout_ms > 0.0 && watch.ElapsedMillis() > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int Server::AddLoopbackConnection() {
  int fds[2];
  CAUSALTAD_CHECK_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0)
      << "socketpair failed: " << std::strerror(errno);
  SetNonBlocking(fds[0]);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_fds_.push_back(fds[0]);
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) {
      const char byte = 1;
      [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
    }
  }
  return fds[1];
}

void Server::AdoptPending(double now) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    adopted.swap(pending_fds_);
  }
  for (const int fd : adopted) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_ms = now;
    if (options_.fault != nullptr) conn->fault = options_.fault->Attach();
    connections_accepted_.Inc();
    connections_active_.Add(1);
    if (draining_.load(std::memory_order_acquire)) {
      SendError(conn.get(), ErrorCode::kShuttingDown, "server is draining");
      conn->closing = true;
    }
    connections_.push_back(std::move(conn));
  }
}

void Server::AcceptTcp(double now) {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;
    SetNoDelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_ms = now;
    if (options_.fault != nullptr) conn->fault = options_.fault->Attach();
    connections_.push_back(std::move(conn));
    connections_accepted_.Inc();
    connections_active_.Add(1);
  }
}

void Server::Loop() {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  while (!stop_.load(std::memory_order_acquire)) {
    const double now = NowMs();
    AdoptPending(now);
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listen_fd_ >= 0) {
      // Stop admitting TCP connections; Stop() sees -1 and skips the close.
      close(listen_fd_);
      listen_fd_ = -1;
    }

    fds.clear();
    polled.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& conn : connections_) {
      if (conn->fd < 0) continue;
      // Idle-peer reaping: a half-open connection (peer gone without FIN,
      // or a wedged producer) stops pinning quota and shard rows. Its
      // resumable sessions detach like any disconnect.
      if (!conn->closing && options_.heartbeat_timeout_ms > 0.0 &&
          now - conn->last_activity_ms > options_.heartbeat_timeout_ms) {
        connections_reaped_.Inc();
        CloseConnection(conn.get());
        continue;
      }
      // Draining: once a connection owns no sessions it is told the server
      // is going away and flushed out.
      if (draining && !conn->closing && conn->sessions.empty()) {
        SendError(conn.get(), ErrorCode::kShuttingDown,
                  "server is draining");
        conn->closing = true;
        if (conn->fd < 0) continue;
      }
      short events = conn->closing ? 0 : POLLIN;
      if (conn->woff < conn->wbuf.size()) events |= POLLOUT;
      if (events == 0) {  // closing and fully flushed
        CloseConnection(conn.get());
        continue;
      }
      fds.push_back({conn->fd, events, 0});
      polled.push_back(conn.get());
    }
    // With orphans or detached sessions pending (or a drain in flight),
    // tick fast enough to move their scores as the backend emits them;
    // otherwise just often enough to notice Stop() races lost to the wake
    // pipe, or as often as the backend's housekeeping asks.
    const double idle_ms =
        (orphans_.empty() && detached_.empty() && !draining) ? 50.0 : 2.0;
    const int timeout_ms =
        static_cast<int>(std::max(1.0, std::min(idle_ms, backend_->Tick())));
    const int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;
    if (ready >= 0) {
      size_t base = 1;
      if (fds[0].revents & POLLIN) {
        char buf[64];
        while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
      }
      if (listen_fd_ >= 0) {
        if (fds[base].revents & POLLIN) AcceptTcp(now);
        ++base;
      }
      for (size_t i = 0; i < polled.size(); ++i) {
        Connection* conn = polled[i];
        const short revents = fds[base + i].revents;
        if (revents & POLLOUT) {
          if (!FlushWrites(conn)) {
            CloseConnection(conn);
            continue;
          }
        }
        if (revents & POLLIN) ReadConnection(conn, NowMs());
        if ((revents & (POLLERR | POLLHUP)) && conn->fd >= 0 &&
            conn->woff >= conn->wbuf.size()) {
          CloseConnection(conn);
        }
      }
    }
    PumpStaging();
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) {
                         return c->fd < 0;
                       }),
        connections_.end());
    DrainOrphans();
    DrainDetached(NowMs());
  }
}

void Server::ReadConnection(Connection* conn, double now) {
  uint8_t buf[64 * 1024];
  while (conn->fd >= 0 && !conn->closing) {
    const IoResult r = RecvSome(conn->fd, buf, sizeof(buf),
                                conn->fault.get());
    if (r.n > 0) {
      conn->last_activity_ms = now;
      bytes_received_.Inc(r.n);
      conn->decoder.Feed(buf, static_cast<size_t>(r.n));
      Frame frame;
      while (conn->fd >= 0 && !conn->closing && conn->decoder.Next(&frame)) {
        frames_received_.Inc();
        const uint8_t kind = static_cast<uint8_t>(frame.type);
        util::Stopwatch dispatch_watch;
        HandleFrame(conn, frame);
        if (kind >= 1 && kind <= 14) {
          dispatch_frame_[kind]->Observe(dispatch_watch.ElapsedMillis());
        }
      }
      if (!conn->decoder.status().ok() && conn->fd >= 0 && !conn->closing) {
        protocol_errors_.Inc();
        SendError(conn, ErrorCode::kProtocol,
                  conn->decoder.status().message());
        conn->closing = true;
      }
      if (static_cast<ssize_t>(sizeof(buf)) > r.n) break;  // drained
    } else if (r.peer_closed) {
      CloseConnection(conn);
      break;
    } else if (r.would_block) {
      break;
    } else {
      CloseConnection(conn);  // hard error (incl. injected kill)
      break;
    }
  }
}

void Server::HandleFrame(Connection* conn, const Frame& frame) {
  if (!conn->authed && frame.type != FrameType::kHello) {
    auth_failures_.Inc();
    SendError(conn, ErrorCode::kAuthRequired, "first frame must be Hello");
    conn->closing = true;
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(conn, frame);
      return;
    case FrameType::kBegin:
      HandleBegin(conn, frame);
      return;
    case FrameType::kPush:
      HandlePush(conn, frame);
      return;
    case FrameType::kEnd:
      HandleEnd(conn, frame);
      return;
    case FrameType::kPoll:
      HandlePoll(conn, frame);
      return;
    case FrameType::kResume:
      HandleResume(conn, frame);
      return;
    case FrameType::kHeartbeat:
      HandleHeartbeat(conn, frame);
      return;
    case FrameType::kAdmin:
      HandleAdmin(conn, frame);
      return;
    case FrameType::kStats:
      HandleStats(conn, frame);
      return;
    case FrameType::kScoreDelta:
    case FrameType::kPushReject:
    case FrameType::kResumeAck:
    case FrameType::kError:
    case FrameType::kAdminAck:
      break;  // server-to-client frames are not valid requests
  }
  protocol_errors_.Inc();
  SendError(conn, ErrorCode::kProtocol, "client sent a server-only frame");
  conn->closing = true;
}

void Server::HandleHello(Connection* conn, const Frame& frame) {
  if (conn->authed) {
    // A byte-identical duplicate (fault injection redelivers whole frames)
    // is an idempotent re-auth; a DIFFERENT tenant mid-connection is not.
    if (frame.tenant == conn->tenant) return;
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kProtocol, "Hello changed tenant");
    conn->closing = true;
    return;
  }
  if (!options_.tenant_tokens.empty()) {
    const auto it = options_.tenant_tokens.find(frame.tenant);
    if (it == options_.tenant_tokens.end() ||
        it->second != frame.auth_token) {
      auth_failures_.Inc();
      SendError(conn, ErrorCode::kAuthFailed,
                "unknown tenant or bad token for '" + frame.tenant + "'");
      conn->closing = true;
      return;
    }
  }
  conn->authed = true;
  conn->tenant = frame.tenant;
}

void Server::HandleBegin(Connection* conn, const Frame& frame) {
  if (draining_.load(std::memory_order_acquire)) {
    SendError(conn, ErrorCode::kShuttingDown, "server is draining");
    conn->closing = true;
    return;
  }
  const auto existing = conn->sessions.find(frame.session);
  if (existing != conn->sessions.end()) {
    // A redelivered duplicate of the same resumable Begin is idempotent;
    // reusing a live id for a different session is a protocol error.
    if (frame.resume_key != 0 &&
        existing->second.resume_key == frame.resume_key) {
      return;
    }
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kDuplicateSession,
              "session " + std::to_string(frame.session) + " already open");
    conn->closing = true;
    return;
  }
  if (options_.network != nullptr) {
    const int64_t n = options_.network->num_segments();
    if (frame.source < 0 || frame.source >= n || frame.destination < 0 ||
        frame.destination >= n) {
      protocol_errors_.Inc();
      SendError(conn, ErrorCode::kInvalidSegment,
                "Begin endpoints out of range");
      conn->closing = true;
      return;
    }
  }
  SessionState state;
  state.inner = backend_->BeginSession(frame.source, frame.destination,
                                       frame.time_slot);
  if (RefuseIfLost(conn, state)) return;
  state.resume_key = frame.resume_key;
  conn->sessions.emplace(frame.session, state);
}

int64_t* Server::TenantPending(const std::string& tenant) {
  return &tenant_pending_[tenant];
}

void Server::HandlePush(Connection* conn, const Frame& frame) {
  const auto it = conn->sessions.find(frame.session);
  if (it == conn->sessions.end()) {
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kUnknownSession,
              "Push for unknown session " + std::to_string(frame.session));
    conn->closing = true;
    return;
  }
  SessionState& state = it->second;
  // A seq the session has already accepted is a resume replay crossing an
  // ack the client never saw: idempotently ignore it — the accepted stream
  // must have no duplicates.
  if (frame.seq < state.expected_seq) {
    duplicate_pushes_.Inc();
    return;
  }
  if (state.ended) {
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kProtocol, "Push after End");
    conn->closing = true;
    return;
  }
  // In-order admission: once a push is rejected, every later in-flight push
  // of the session bounces as out-of-order until the client resends from
  // the gap — the session's accepted stream can never skip a point.
  if (frame.seq != state.expected_seq) {
    rejected_out_of_order_.Inc();
    SendReject(conn, frame, RejectReason::kOutOfOrder);
    return;
  }
  if (options_.network != nullptr) {
    const int64_t n = options_.network->num_segments();
    const bool in_range = frame.segment >= 0 && frame.segment < n;
    if (!in_range || (state.has_last &&
                      !options_.network->IsSuccessor(state.last,
                                                     frame.segment))) {
      protocol_errors_.Inc();
      SendError(conn, ErrorCode::kInvalidSegment,
                in_range ? "segment is not a legal successor"
                         : "segment id out of range");
      conn->closing = true;
      return;
    }
  }
  // Tenant shed quota, checked before the push reaches a shard: points the
  // tenant has pushed but not yet drained via Poll count against it.
  // Emit-skipped replay pushes (seq < skip) never produce a deliverable
  // score, so they are quota-exempt.
  int64_t* pending = TenantPending(conn->tenant);
  const bool deliverable =
      static_cast<int64_t>(frame.seq) >= state.skip;
  if (deliverable && options_.tenant_max_pending > 0 &&
      *pending >= options_.tenant_max_pending) {
    rejected_quota_.Inc();
    SendReject(conn, frame, RejectReason::kQuota);
    return;
  }
  // Traced push: time the service hand-off as the backend's dispatch leg of
  // the span chain (the shard batcher records queue_wait/compute/emit).
  const bool traced = frame.trace_id != 0 && options_.tracer != nullptr;
  const double trace_t0 = traced ? obs::TraceNowMs() : 0.0;
  const serve::PushStatus status =
      backend_->Push(state.inner, frame.segment, frame.trace_id);
  if (status != serve::PushStatus::kAccepted && SessionLost(state)) {
    DropLostSession(conn, frame.session);
    return;
  }
  switch (status) {
    case serve::PushStatus::kAccepted:
      ++state.expected_seq;
      if (deliverable) ++*pending;
      state.last = frame.segment;
      state.has_last = true;
      pushes_accepted_.Inc();
      if (traced) {
        options_.tracer->Record(frame.trace_id, "server_dispatch",
                                options_.trace_where, trace_t0,
                                obs::TraceNowMs() - trace_t0);
      }
      return;  // accepted pushes are not answered — scores are the ack
    case serve::PushStatus::kSessionFull:
      rejected_session_full_.Inc();
      SendReject(conn, frame, RejectReason::kSessionFull);
      return;
    case serve::PushStatus::kShardFull:
      rejected_shard_full_.Inc();
      SendReject(conn, frame, RejectReason::kShardFull);
      return;
    case serve::PushStatus::kShutdown:
      rejected_shutdown_.Inc();
      SendReject(conn, frame, RejectReason::kShutdown);
      return;
  }
}

void Server::HandleEnd(Connection* conn, const Frame& frame) {
  const auto it = conn->sessions.find(frame.session);
  if (it == conn->sessions.end()) {
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kUnknownSession,
              "End for unknown session " + std::to_string(frame.session));
    conn->closing = true;
    return;
  }
  if (it->second.ended) {
    // A resumed session may replay its End (the client cannot know whether
    // the original landed) — idempotent. A duplicate End on a session that
    // was never resumable is still a protocol error.
    if (it->second.resume_key != 0) return;
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kProtocol, "duplicate End");
    conn->closing = true;
    return;
  }
  it->second.ended = true;
  backend_->End(it->second.inner);
  if (SessionLost(it->second)) {
    DropLostSession(conn, frame.session);
    return;
  }
  MaybeForgetSession(conn, frame.session);
}

void Server::SendScoreChunks(Connection* conn, uint64_t session_id,
                             const std::vector<double>& scores, int64_t base,
                             uint64_t token) {
  // A large backlog is split across frames so no delta ever exceeds
  // kMaxFramePayload; only the LAST chunk echoes the token, so the
  // client's barrier still means "everything before this has arrived".
  // Every chunk is offset-stamped so the client can detect gaps and drop
  // redelivered duplicates after a resume.
  size_t sent = 0;
  do {
    Frame delta;
    delta.type = FrameType::kScoreDelta;
    delta.session = session_id;
    delta.offset = static_cast<uint64_t>(base) + sent;
    const size_t chunk = std::min(scores.size() - sent, kMaxScoresPerDelta);
    delta.scores.assign(scores.begin() + static_cast<int64_t>(sent),
                        scores.begin() + static_cast<int64_t>(sent + chunk));
    sent += chunk;
    if (sent == scores.size()) delta.token = token;
    SendFrame(conn, delta);
    // SendFrame may have closed the connection (broken pipe / slow
    // consumer), clearing the session map — stop touching it.
    if (conn->fd < 0) return;
  } while (sent < scores.size());
}

void Server::HandlePoll(Connection* conn, const Frame& frame) {
  std::vector<double> scores;
  int64_t base = 0;
  const auto it = conn->sessions.find(frame.session);
  const bool known = it != conn->sessions.end();
  if (known) {
    SessionState& state = it->second;
    scores = backend_->Poll(state.inner);
    if (scores.empty() && SessionLost(state)) {
      DropLostSession(conn, frame.session);
      return;
    }
    const int64_t n = static_cast<int64_t>(scores.size());
    base = state.delivered;
    state.delivered += n;
    *TenantPending(conn->tenant) -= n;
    if (state.resume_key != 0) {
      // Retain for post-reconnect redelivery until the client acks them
      // (frame.offset = its delivered high-water).
      state.history.insert(state.history.end(), scores.begin(),
                           scores.end());
      while (!state.history.empty() &&
             state.history_base < static_cast<int64_t>(frame.offset)) {
        state.history.pop_front();
        ++state.history_base;
      }
      if (static_cast<int64_t>(state.history.size()) >
          options_.max_resume_history) {
        // The client is not acking: cap memory by revoking resumability
        // instead of growing without bound.
        state.resume_key = 0;
        state.history.clear();
      }
    }
  }
  // Unknown sessions get an empty delta: a Poll is ALWAYS answered, so
  // clients can use it as an ordering barrier (e.g. right after Hello).
  SendScoreChunks(conn, frame.session, scores, base, frame.token);
  if (conn->fd < 0) return;
  if (known) MaybeForgetSession(conn, frame.session);
}

void Server::HandleResume(Connection* conn, const Frame& frame) {
  if (draining_.load(std::memory_order_acquire)) {
    SendError(conn, ErrorCode::kShuttingDown, "server is draining");
    conn->closing = true;
    return;
  }
  if (frame.resume_key == 0) {
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kProtocol, "Resume without a resume key");
    conn->closing = true;
    return;
  }
  const auto open = conn->sessions.find(frame.session);
  if (open != conn->sessions.end()) {
    if (open->second.resume_key == frame.resume_key) {
      // Redelivered duplicate of a Resume already honored: re-ack with the
      // current accepted high-water (the client ignores acks it is not
      // waiting for, so this is harmless either way).
      Frame ack;
      ack.type = FrameType::kResumeAck;
      ack.session = frame.session;
      ack.offset = open->second.expected_seq;
      SendFrame(conn, ack);
      return;
    }
    protocol_errors_.Inc();
    SendError(conn, ErrorCode::kDuplicateSession,
              "Resume for a session id already open on this connection");
    conn->closing = true;
    return;
  }
  const int64_t have = static_cast<int64_t>(frame.offset);
  const auto det = detached_.find(DetachedKey(conn->tenant,
                                              frame.resume_key));
  if (det != detached_.end() && have >= det->second.state.history_base &&
      !SessionLost(det->second.state)) {
    // Re-adopt: the interrupted session continues where it left off. The
    // ack tells the client to replay from the accepted high-water; the
    // unacked history tail is redelivered first (offset-stamped, so a
    // client that actually received some of it drops the duplicates).
    SessionState state = std::move(det->second.state);
    detached_.erase(det);
    detached_live_.Set(static_cast<int64_t>(detached_.size()));
    sessions_resumed_.Inc();
    while (!state.history.empty() && state.history_base < have) {
      state.history.pop_front();
      ++state.history_base;
    }
    Frame ack;
    ack.type = FrameType::kResumeAck;
    ack.session = frame.session;
    ack.offset = state.expected_seq;
    SendFrame(conn, ack);
    if (conn->fd < 0) return;
    if (!state.history.empty()) {
      const std::vector<double> redeliver(state.history.begin(),
                                          state.history.end());
      SendScoreChunks(conn, frame.session, redeliver, state.history_base,
                      /*token=*/0);
      if (conn->fd < 0) return;
    }
    conn->sessions.emplace(frame.session, std::move(state));
    MaybeForgetSession(conn, frame.session);
    return;
  }
  if (det != detached_.end()) {
    // The backend lost the parked session, or the client's high-water
    // predates the retained history (cannot happen with a well-behaved
    // client, but a corrupt peer must not wedge the parked state): abandon
    // the old incarnation and rebuild fresh below.
    AbandonDetachedLocked(&det->second);
    detached_.erase(det);
    detached_live_.Set(static_cast<int64_t>(detached_.size()));
  }
  // Fresh rebuild: the server lost the session (restart, linger expiry).
  // The client replays its full journaled prefix from seq 0; the first
  // `have` scores are computed but not re-delivered (emit-skip), so
  // delivery resumes exactly at the client's high-water.
  if (options_.network != nullptr) {
    const int64_t n = options_.network->num_segments();
    if (frame.source < 0 || frame.source >= n || frame.destination < 0 ||
        frame.destination >= n) {
      protocol_errors_.Inc();
      SendError(conn, ErrorCode::kInvalidSegment,
                "Resume endpoints out of range");
      conn->closing = true;
      return;
    }
  }
  SessionState state;
  state.inner = backend_->BeginSessionAt(frame.source, frame.destination,
                                         frame.time_slot, have);
  if (RefuseIfLost(conn, state)) return;
  state.resume_key = frame.resume_key;
  state.skip = have;
  state.delivered = have;
  state.history_base = have;
  conn->sessions.emplace(frame.session, state);
  sessions_resumed_fresh_.Inc();
  Frame ack;
  ack.type = FrameType::kResumeAck;
  ack.session = frame.session;
  ack.offset = 0;  // replay everything
  SendFrame(conn, ack);
}

void Server::HandleHeartbeat(Connection* conn, const Frame& frame) {
  if (frame.seq != 1) return;  // not a ping: ignore stray pongs
  heartbeats_.Inc();
  Frame pong;
  pong.type = FrameType::kHeartbeat;
  pong.token = frame.token;
  pong.seq = 0;
  SendFrame(conn, pong);
}

void Server::SendAdminAck(Connection* conn, uint64_t token, AdminStatus status,
                          const std::string& message) {
  Frame ack;
  ack.type = FrameType::kAdminAck;
  ack.token = token;
  ack.seq = static_cast<uint64_t>(status);
  ack.message = message;
  last_admin_ack_ = ack;
  has_last_admin_ack_ = true;
  SendFrame(conn, ack);
}

void Server::HandleAdmin(Connection* conn, const Frame& frame) {
  if (!backend_->TakesAdmin()) {
    SendAdminAck(conn, frame.token, AdminStatus::kError,
                 "admin commands are not routed; use the router API");
    return;
  }
  // Authorization: a configured admin_tenant gates the surface; without
  // one, only an OPEN server (no tenant tokens) accepts admin commands.
  const bool authorized = options_.admin_tenant.empty()
                              ? options_.tenant_tokens.empty()
                              : conn->tenant == options_.admin_tenant;
  if (!authorized) {
    auth_failures_.Inc();
    SendAdminAck(conn, frame.token, AdminStatus::kError,
                 "admin not authorized for tenant '" + conn->tenant + "'");
    return;
  }
  // Idempotent replay: a resent Admin (barrier resend, fault redelivery)
  // whose token matches the last ack re-receives that ack verbatim — a
  // duplicate commit must not re-run and mis-report "nothing staged".
  if (has_last_admin_ack_ && frame.token == last_admin_ack_.token) {
    SendFrame(conn, last_admin_ack_);
    return;
  }
  const std::string& command = frame.message;
  if (command.rfind("stage:", 0) == 0) {
    const std::string tag = command.substr(6);
    if (!options_.model_resolver) {
      SendAdminAck(conn, frame.token, AdminStatus::kError,
                   "no model resolver configured");
      return;
    }
    const int state = stage_state_.load(std::memory_order_acquire);
    if (state == kStageLoading) {
      if (tag == stage_tag_) {
        // Same tag already loading (or this frame was resent while we
        // load): join the waiters for the deferred ack.
        for (const auto& [waiter, token] : stage_waiters_) {
          if (waiter == conn && token == frame.token) return;
        }
        stage_waiters_.emplace_back(conn, frame.token);
        return;
      }
      SendAdminAck(conn, frame.token, AdminStatus::kBusy,
                   "stage '" + stage_tag_ + "' still loading");
      return;
    }
    if (state == kStageReady && tag == stage_tag_) {
      // Re-staging resident weights is idempotent.
      SendAdminAck(conn, frame.token, AdminStatus::kOk, tag);
      return;
    }
    if (stage_worker_.joinable()) stage_worker_.join();
    stage_tag_ = tag;
    staged_model_ = nullptr;
    stage_error_.clear();
    stage_waiters_.emplace_back(conn, frame.token);
    stage_state_.store(kStageLoading, std::memory_order_release);
    stage_worker_ = std::thread([this, tag] {
      const core::CausalTad* model = options_.model_resolver(tag);
      if (model != nullptr) {
        staged_model_ = model;
        models_staged_.Inc();
        stage_state_.store(kStageReady, std::memory_order_release);
      } else {
        stage_error_ = "stage '" + tag + "' failed to load";
        stage_state_.store(kStageFailed, std::memory_order_release);
      }
    });
    return;  // ack deferred: PumpStaging answers when the load settles
  }
  if (command == "commit") {
    switch (stage_state_.load(std::memory_order_acquire)) {
      case kStageLoading:
        SendAdminAck(conn, frame.token, AdminStatus::kBusy,
                     "stage '" + stage_tag_ + "' still loading");
        return;
      case kStageReady: {
        if (stage_worker_.joinable()) stage_worker_.join();
        if (!backend_->SwapModel(staged_model_)) {
          SendAdminAck(conn, frame.token, AdminStatus::kError,
                       "service has shut down");
          return;
        }
        models_committed_.Inc();
        stage_state_.store(kStageIdle, std::memory_order_release);
        SendAdminAck(conn, frame.token, AdminStatus::kOk, stage_tag_);
        return;
      }
      case kStageFailed:
        SendAdminAck(conn, frame.token, AdminStatus::kError, stage_error_);
        return;
      default:
        SendAdminAck(conn, frame.token, AdminStatus::kError,
                     "nothing staged");
        return;
    }
  }
  SendAdminAck(conn, frame.token, AdminStatus::kError,
               "unknown admin command: " + command);
}

void Server::HandleStats(Connection* conn, const Frame& frame) {
  // Answered directly (NOT via SendAdminAck): a scrape is idempotent and
  // must not disturb the Admin replay cache — a duplicate commit arriving
  // after a scrape still has to re-receive its cached ack, not re-run.
  Frame ack;
  ack.type = FrameType::kAdminAck;
  ack.token = frame.token;
  ack.seq = static_cast<uint64_t>(AdminStatus::kOk);
  // A fleet answers with its own view, to any authed tenant: the backends'
  // scrapes behind it carry the fleet's admin credentials. Otherwise the
  // same gate as Admin applies: the exposition names tenants and
  // internals, so it is an operator surface, not a client one.
  if (!backend_->Exposition(&ack.message)) {
    const bool authorized = options_.admin_tenant.empty()
                                ? options_.tenant_tokens.empty()
                                : conn->tenant == options_.admin_tenant;
    if (!authorized) {
      auth_failures_.Inc();
      ack.seq = static_cast<uint64_t>(AdminStatus::kError);
      ack.message = "stats not authorized for tenant '" + conn->tenant + "'";
    } else {
      ack.message = registry_->ExpositionText();
    }
  }
  SendFrame(conn, ack);
}

void Server::PumpStaging() {
  if (stage_waiters_.empty()) return;
  const int state = stage_state_.load(std::memory_order_acquire);
  if (state == kStageLoading) return;  // still loading: acks stay deferred
  if (stage_worker_.joinable()) stage_worker_.join();
  // Swap out first: SendAdminAck can close a connection, which purges
  // stage_waiters_ via CloseConnection — do not iterate the live vector.
  std::vector<std::pair<Connection*, uint64_t>> waiters;
  waiters.swap(stage_waiters_);
  for (const auto& [conn, token] : waiters) {
    if (conn->fd < 0) continue;
    if (state == kStageReady) {
      SendAdminAck(conn, token, AdminStatus::kOk, stage_tag_);
    } else {
      SendAdminAck(conn, token, AdminStatus::kError, stage_error_);
    }
  }
}

void Server::MaybeForgetSession(Connection* conn, uint64_t id) {
  const auto it = conn->sessions.find(id);
  if (it == conn->sessions.end()) return;
  if (it->second.ended && it->second.Outstanding() == 0) {
    conn->sessions.erase(it);
  }
}

bool Server::SessionLost(const SessionState& state) {
  return (!state.ended || state.Outstanding() > 0) &&
         backend_->Lost(state.inner);
}

bool Server::RefuseIfLost(Connection* conn, const SessionState& state) {
  if (!SessionLost(state)) return false;
  backend_->End(state.inner);
  SendError(conn, ErrorCode::kShuttingDown, "no backend can host the session");
  conn->closing = true;
  return true;
}

void Server::DropLostSession(Connection* conn, uint64_t id) {
  const auto it = conn->sessions.find(id);
  if (it == conn->sessions.end()) return;
  if (!it->second.ended) backend_->End(it->second.inner);
  *TenantPending(conn->tenant) -= it->second.Outstanding();
  conn->sessions.erase(it);
  // A recoverable code: the client reconnects and Resumes, and with nothing
  // parked under its key the session is rebuilt from the client's journal.
  SendError(conn, ErrorCode::kProtocol,
            "session " + std::to_string(id) + " lost by the backend");
  conn->closing = true;
}

void Server::SendFrame(Connection* conn, const Frame& frame) {
  if (conn->fd < 0) return;
  EncodeFrame(frame, &conn->wbuf);
  frames_sent_.Inc();
  if (!FlushWrites(conn)) {
    CloseConnection(conn);
    return;
  }
  if (conn->wbuf.size() - conn->woff > options_.max_connection_backlog) {
    // Slow consumer: it is not reading its deltas; cut it loose instead of
    // buffering without bound.
    CloseConnection(conn);
  }
}

void Server::SendError(Connection* conn, ErrorCode code,
                       const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.code = code;
  frame.message = message;
  SendFrame(conn, frame);
}

void Server::SendReject(Connection* conn, const Frame& push,
                        RejectReason reason) {
  Frame frame;
  frame.type = FrameType::kPushReject;
  frame.session = push.session;
  frame.seq = push.seq;
  frame.wire_seq = push.wire_seq;
  frame.reason = reason;
  SendFrame(conn, frame);
}

bool Server::FlushWrites(Connection* conn) {
  while (conn->woff < conn->wbuf.size()) {
    const IoResult r =
        SendSome(conn->fd, conn->wbuf.data() + conn->woff,
                 conn->wbuf.size() - conn->woff, conn->fault.get());
    if (!r.ok()) return false;  // broken pipe etc. (incl. injected kill)
    if (r.would_block || r.n == 0) break;
    conn->woff += static_cast<size_t>(r.n);
    bytes_sent_.Inc(r.n);
  }
  if (conn->woff == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
  } else if (conn->woff > (1u << 20)) {
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() + static_cast<int64_t>(conn->woff));
    conn->woff = 0;
  }
  return true;
}

void Server::CloseConnection(Connection* conn) {
  if (conn->fd < 0) return;
  close(conn->fd);
  conn->fd = -1;
  connections_active_.Add(-1);
  // Forget any stage ack owed to this connection — the Connection object
  // is reclaimed by the loop and the waiter list must never dangle.
  stage_waiters_.erase(
      std::remove_if(stage_waiters_.begin(), stage_waiters_.end(),
                     [conn](const std::pair<Connection*, uint64_t>& w) {
                       return w.first == conn;
                     }),
      stage_waiters_.end());
  const bool draining = draining_.load(std::memory_order_acquire);
  const double now = NowMs();
  for (auto& [id, state] : conn->sessions) {
    if (state.resume_key != 0 && !draining) {
      // Park for re-adoption: the service session stays live, its scores
      // accrue to the retained history via DrainDetached, and the tenant's
      // quota drains as those scores surface.
      const std::string key = DetachedKey(conn->tenant, state.resume_key);
      const auto stale = detached_.find(key);
      if (stale != detached_.end()) {
        // A previous incarnation with the same key was never resumed:
        // abandon it rather than leak its service session.
        AbandonDetachedLocked(&stale->second);
        detached_.erase(stale);
      }
      sessions_detached_.Inc();
      detached_.emplace(key,
                        Detached{std::move(state), conn->tenant, now});
      continue;
    }
    // Not resumable (or draining): end it and let the orphan drain give
    // the quota back as the remaining scores surface.
    if (!state.ended) backend_->End(state.inner);
    if (state.Outstanding() > 0 || !state.ended) {
      orphans_.push_back({state.inner, conn->tenant, state.Outstanding()});
    }
  }
  conn->sessions.clear();
  detached_live_.Set(static_cast<int64_t>(detached_.size()));
  orphans_live_.Set(static_cast<int64_t>(orphans_.size()));
}

void Server::DrainOrphans() {
  for (size_t i = 0; i < orphans_.size();) {
    Orphan& orphan = orphans_[i];
    const std::vector<double> scores = backend_->Poll(orphan.inner);
    const int64_t n = static_cast<int64_t>(scores.size());
    orphan.remaining -= n;
    *TenantPending(orphan.tenant) -= n;
    if (orphan.remaining > 0 && backend_->Lost(orphan.inner)) {
      *TenantPending(orphan.tenant) -= orphan.remaining;  // never coming
      orphan.remaining = 0;
    }
    if (orphan.remaining <= 0) {
      orphans_[i] = orphans_.back();
      orphans_.pop_back();
    } else {
      ++i;
    }
  }
  orphans_live_.Set(static_cast<int64_t>(orphans_.size()));
}

void Server::AbandonDetachedLocked(Detached* detached) {
  SessionState& state = detached->state;
  if (!state.ended) {
    backend_->End(state.inner);
    state.ended = true;
  }
  if (state.Outstanding() > 0) {
    orphans_.push_back({state.inner, detached->tenant, state.Outstanding()});
  }
  state.history.clear();
}

void Server::DrainDetached(double now) {
  const bool draining = draining_.load(std::memory_order_acquire);
  for (auto it = detached_.begin(); it != detached_.end();) {
    Detached& detached = it->second;
    SessionState& state = detached.state;
    // Keep collecting the scores the service emits for the parked session;
    // they are what a reconnecting client is owed.
    const std::vector<double> scores = backend_->Poll(state.inner);
    const int64_t n = static_cast<int64_t>(scores.size());
    if (n > 0) {
      state.delivered += n;
      state.history.insert(state.history.end(), scores.begin(),
                           scores.end());
      *TenantPending(detached.tenant) -= n;
    }
    const bool history_overflow =
        static_cast<int64_t>(state.history.size()) >
        options_.max_resume_history;
    const bool expired =
        options_.detached_linger_ms > 0.0 &&
        now - detached.detached_at_ms > options_.detached_linger_ms;
    if (draining || history_overflow || expired || SessionLost(state)) {
      AbandonDetachedLocked(&detached);
      it = detached_.erase(it);
    } else {
      ++it;
    }
  }
  detached_live_.Set(static_cast<int64_t>(detached_.size()));
  orphans_live_.Set(static_cast<int64_t>(orphans_.size()));
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.value();
  stats.connections_active =
      connections_active_.value();
  stats.connections_reaped =
      connections_reaped_.value();
  stats.frames_received = frames_received_.value();
  stats.frames_sent = frames_sent_.value();
  stats.bytes_received = bytes_received_.value();
  stats.bytes_sent = bytes_sent_.value();
  stats.pushes_accepted = pushes_accepted_.value();
  stats.duplicate_pushes =
      duplicate_pushes_.value();
  stats.rejected_session_full =
      rejected_session_full_.value();
  stats.rejected_shard_full =
      rejected_shard_full_.value();
  stats.rejected_quota = rejected_quota_.value();
  stats.rejected_out_of_order =
      rejected_out_of_order_.value();
  stats.rejected_shutdown =
      rejected_shutdown_.value();
  stats.auth_failures = auth_failures_.value();
  stats.protocol_errors = protocol_errors_.value();
  stats.heartbeats = heartbeats_.value();
  stats.sessions_detached =
      sessions_detached_.value();
  stats.sessions_resumed = sessions_resumed_.value();
  stats.sessions_resumed_fresh =
      sessions_resumed_fresh_.value();
  stats.sessions_detached_live =
      detached_live_.value();
  stats.models_staged = models_staged_.value();
  stats.models_committed = models_committed_.value();
  // Dispatch latency across every frame type, windowed to this instance via
  // the construction-time baselines (the registry series are cumulative).
  const util::LatencyHistogram* hists[14];
  for (int t = 1; t <= 14; ++t) hists[t - 1] = dispatch_frame_[t]->raw();
  const util::LatencyHistogram::Snapshot* bases = dispatch_base_ + 1;
  const int n = 14;
  stats.dispatch_mean_ms =
      util::LatencyHistogram::MergedMeanMsSince(hists, bases, n);
  stats.dispatch_p50_ms =
      util::LatencyHistogram::MergedPercentileSince(hists, bases, n, 50.0);
  stats.dispatch_p95_ms =
      util::LatencyHistogram::MergedPercentileSince(hists, bases, n, 95.0);
  stats.dispatch_p99_ms =
      util::LatencyHistogram::MergedPercentileSince(hists, bases, n, 99.0);
  return stats;
}

}  // namespace net
}  // namespace causaltad
