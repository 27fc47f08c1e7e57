#include "net/client.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "net/socket_io.h"
#include "util/stopwatch.h"

namespace causaltad {
namespace net {
namespace {

/// splitmix64, for deriving per-session resume keys from the client id.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// While a barrier waits, its request is re-sent at this interval — a
/// swallowed Poll/ping (fault injection) must not stall the barrier until
/// the full timeout. Re-sends reuse the token, which is idempotent.
constexpr double kBarrierResendMs = 250.0;

}  // namespace

const char* PushOutcomeName(PushOutcome outcome) {
  switch (outcome) {
    case PushOutcome::kAccepted:
      return "accepted";
    case PushOutcome::kSessionFull:
      return "session_full";
    case PushOutcome::kShardFull:
      return "shard_full";
    case PushOutcome::kQuota:
      return "quota";
    case PushOutcome::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

double BackoffDelayMs(int attempt, double base_ms, double max_ms,
                      double jitter, util::Rng* rng) {
  double delay = base_ms * std::pow(2.0, std::max(attempt, 0));
  delay = std::min(delay, max_ms);
  if (jitter > 0.0 && rng != nullptr) {
    delay *= 1.0 + jitter * (2.0 * rng->Uniform() - 1.0);
  }
  return std::max(delay, 0.0);
}

double DecorrelatedBackoffMs(double prev_ms, double base_ms, double max_ms,
                             util::Rng* rng) {
  const double base = std::max(base_ms, 0.0);
  const double prev = std::max(prev_ms, base);
  const double span = 3.0 * prev - base;
  const double u = rng != nullptr ? rng->Uniform() : 0.5;
  return std::min(std::max(base + u * span, base), std::max(max_ms, base));
}

util::StatusOr<std::unique_ptr<Client>> Client::ConnectTcp(
    const std::string& host, int port, ClientOptions options) {
  std::string error;
  const int fd = DialTcp(host, port, &error);
  if (fd < 0) return util::Status::IoError(error);
  std::unique_ptr<Client> client(new Client(fd, std::move(options)));
  client->tcp_host_ = host;
  client->tcp_port_ = port;
  return client;
}

std::unique_ptr<Client> Client::FromFd(int fd, ClientOptions options) {
  return std::unique_ptr<Client>(new Client(fd, std::move(options)));
}

Client::Client(int fd, ClientOptions options)
    : fd_(fd), options_(std::move(options)) {
  client_id_ = options_.client_id;
  if (client_id_ == 0) {
    std::random_device rd;
    client_id_ = (static_cast<uint64_t>(rd()) << 32) ^ rd();
    if (client_id_ == 0) client_id_ = 1;
  }
  rng_ = util::Rng(Mix(client_id_));
  if (options_.fault != nullptr) fault_conn_ = options_.fault->Attach();
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  m_pushes_sent_ = registry->GetCounter("client_pushes_sent_total");
  m_retransmits_ = registry->GetCounter("client_retransmits_total");
  m_rejects_seen_ = registry->GetCounter("client_rejects_seen_total");
  m_polls_sent_ = registry->GetCounter("client_polls_sent_total");
  m_frames_received_ = registry->GetCounter("client_frames_received_total");
  m_bytes_sent_ = registry->GetCounter("client_bytes_sent_total");
  m_bytes_received_ = registry->GetCounter("client_bytes_received_total");
  m_reconnects_ = registry->GetCounter("client_reconnects_total");
  m_dup_scores_ = registry->GetCounter("client_dup_scores_total");
  if (options_.tracer != nullptr && options_.trace_slow_ms > 0.0) {
    options_.tracer->set_slow_threshold_ms(options_.trace_slow_ms);
  }
}

uint64_t Client::MaybeMintTraceId() {
  if (options_.tracer == nullptr || options_.trace_sample_period <= 0) {
    return 0;
  }
  if (--trace_countdown_ > 0) return 0;
  trace_countdown_ = options_.trace_sample_period;
  uint64_t id = Mix(client_id_ ^ Mix(++trace_nonce_));
  if (id == 0) id = 1;
  return id;
}

void Client::RecordRootSpan(const SentPoint& point) {
  if (point.trace_id == 0 || options_.tracer == nullptr) return;
  const double now = obs::TraceNowMs();
  options_.tracer->Record(point.trace_id, "client_push_rtt", "client",
                          point.sent_ms, now - point.sent_ms, /*root=*/true);
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

int Client::Dial() {
  if (options_.dialer) return options_.dialer();
  if (tcp_port_ >= 0) return DialTcp(tcp_host_, tcp_port_, nullptr);
  return -1;  // adopted fd with no redial hook: reconnect impossible
}

void Client::SleepMs(double ms) {
  if (ms <= 0.0) return;
  if (options_.sleeper) {
    options_.sleeper(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

util::Status Client::SendFrame(const Frame& frame) {
  if (!fatal_.ok()) return fatal_;
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  const util::Status status =
      SendAll(fd_, bytes.data(), bytes.size(), options_.timeout_ms,
              fault_conn_.get());
  if (status.ok()) {
    stats_.bytes_sent += static_cast<int64_t>(bytes.size());
    m_bytes_sent_->Inc(static_cast<int64_t>(bytes.size()));
    return util::Status::Ok();
  }
  // The frame itself is NOT re-sent after a successful recovery: pushes are
  // covered by the resume replay and barrier frames are re-issued by their
  // epoch-watching wait loops.
  return Recover(status);
}

util::Status Client::ReadOnce(double timeout_ms, bool* got_bytes) {
  *got_bytes = false;
  if (!fatal_.ok()) return fatal_;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready =
      poll(&pfd, 1, std::max(0, static_cast<int>(timeout_ms)));
  if (ready < 0 && errno != EINTR) {
    return Recover(util::Status::IoError(
        "poll failed: " + std::string(std::strerror(errno))));
  }
  if (ready <= 0) return util::Status::Ok();  // timeout / EINTR: no bytes
  uint8_t buf[64 * 1024];
  const IoResult r = RecvSome(fd_, buf, sizeof(buf), fault_conn_.get());
  if (r.n > 0) {
    *got_bytes = true;
    stats_.bytes_received += r.n;
    m_bytes_received_->Inc(r.n);
    decoder_.Feed(buf, static_cast<size_t>(r.n));
    Frame frame;
    while (fatal_.ok() && !transport_broken_ && decoder_.Next(&frame)) {
      ++stats_.frames_received;
      m_frames_received_->Inc();
      HandleFrame(frame);
    }
    if (!fatal_.ok()) return fatal_;  // protocol latch (server Error frame)
    if (transport_broken_) {
      transport_broken_ = false;
      return Recover(util::Status::IoError(transport_reason_));
    }
    if (!decoder_.status().ok()) {
      return Recover(util::Status::IoError(
          "corrupt stream: " + decoder_.status().message()));
    }
    return util::Status::Ok();
  }
  if (r.would_block) return util::Status::Ok();
  if (r.peer_closed) {
    return Recover(util::Status::IoError("connection closed by server"));
  }
  return Recover(util::Status::IoError(
      "recv failed: " + std::string(std::strerror(r.error))));
}

bool Client::Retryable(RejectReason reason) const {
  switch (reason) {
    case RejectReason::kSessionFull:
    case RejectReason::kShardFull:
    case RejectReason::kQuota:
    case RejectReason::kOutOfOrder:
      return true;
    case RejectReason::kShutdown:
      return false;
  }
  return false;
}

void Client::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kScoreDelta: {
      if (frame.token != 0 && frame.token == waiting_token_) {
        token_seen_ = true;
      }
      const auto it = sessions_.find(frame.session);
      if (it == sessions_.end() || frame.scores.empty()) return;
      Session& session = it->second;
      // Offset dedupe: every delta is stamped with the cumulative index of
      // its first score. Below the high-water mark is a redelivery
      // (reconnect or duplicated frame) — dropped; above it is a gap the
      // resume machinery must repair.
      const int64_t offset = static_cast<int64_t>(frame.offset);
      if (offset > session.delivered) {
        transport_broken_ = true;
        transport_reason_ =
            "score stream gap: delta offset " + std::to_string(offset) +
            " past high-water " + std::to_string(session.delivered);
        return;
      }
      const size_t dup = std::min<size_t>(
          static_cast<size_t>(session.delivered - offset),
          frame.scores.size());
      stats_.dup_scores += static_cast<int64_t>(dup);
      m_dup_scores_->Inc(static_cast<int64_t>(dup));
      if (dup == frame.scores.size()) return;
      const std::vector<double> fresh(frame.scores.begin() + dup,
                                      frame.scores.end());
      if (!session.replay_wire.empty()) {
        // A fresh score implies the server admitted every seq before it —
        // in particular the whole replayed prefix. Retire the replay state
        // so lingering rejects from superseded transmissions read as stale.
        session.replay_wire.clear();
        session.replay_resend_from = -1;
      }
      for (size_t k = 0; k < fresh.size(); ++k) {
        // Scores acknowledge the oldest in-flight points in feed order.
        if (!session.pending.empty()) {
          RecordRootSpan(session.pending.front());
          session.pending.pop_front();
          --total_inflight_;
        }
      }
      session.delivered += static_cast<int64_t>(fresh.size());
      if (score_cb_) {
        score_cb_(frame.session, fresh);
      } else {
        session.scores.insert(session.scores.end(), fresh.begin(),
                              fresh.end());
      }
      return;
    }
    case FrameType::kPushReject: {
      const auto it = sessions_.find(frame.session);
      if (it == sessions_.end()) return;
      Session& session = it->second;
      // Locate the point; a mismatched wire_seq means this reject refers to
      // a transmission we already resent — stale, ignore it.
      auto entry = session.pending.begin();
      while (entry != session.pending.end() && entry->seq != frame.seq) {
        ++entry;
      }
      if (entry == session.pending.end() ||
          entry->wire_seq != frame.wire_seq) {
        // Not an in-flight point. It may be a replayed-prefix transmission
        // from a fresh rebuild: those carry seqs below the delivered
        // high-water (disjoint from `pending`), emit no scores, and still
        // hit server backpressure — dropping their rejects as stale would
        // leave a permanent admission gap. Recognize them by wire_seq and
        // schedule a journal re-replay from the gap.
        const auto rit = session.replay_wire.find(frame.seq);
        if (rit == session.replay_wire.end() ||
            rit->second != frame.wire_seq) {
          return;  // genuinely stale: a transmission we already resent
        }
        ++stats_.rejects_seen;
        m_rejects_seen_->Inc();
        if (reject_cb_) reject_cb_(frame.session, frame.reason);
        if (frame.reason == RejectReason::kShutdown || !options_.auto_retry) {
          total_inflight_ -= static_cast<int64_t>(session.pending.size());
          session.pending.clear();
          session.replay_wire.clear();
          session.replay_resend_from = -1;
          if (frame.reason == RejectReason::kShutdown) {
            session.shutdown = true;
          }
          return;
        }
        if (session.replay_resend_from < 0 ||
            static_cast<uint64_t>(session.replay_resend_from) > frame.seq) {
          session.replay_resend_from = static_cast<int64_t>(frame.seq);
        }
        return;
      }
      ++stats_.rejects_seen;
      m_rejects_seen_->Inc();
      if (reject_cb_) reject_cb_(frame.session, frame.reason);
      if (frame.wire_seq == probe_wire_seq_) {
        // TryPush probe: record the verdict and drop the point — a probe is
        // never retransmitted.
        probe_rejected_ = true;
        probe_reason_ = frame.reason;
        session.pending.erase(entry);
        --total_inflight_;
        return;
      }
      if (frame.reason == RejectReason::kShutdown || !options_.auto_retry) {
        // Terminal (or retries disabled): the rejected point and everything
        // after it can never be accepted in order — drop the tail.
        const int64_t dropped =
            static_cast<int64_t>(session.pending.end() - entry);
        session.pending.erase(entry, session.pending.end());
        total_inflight_ -= dropped;
        if (frame.reason == RejectReason::kShutdown) session.shutdown = true;
        return;
      }
      // Go-back-N: mark the resend point; RunResends retransmits the tail.
      if (session.resend_from < 0 ||
          static_cast<uint64_t>(session.resend_from) > frame.seq) {
        session.resend_from = static_cast<int64_t>(frame.seq);
      }
      return;
    }
    case FrameType::kResumeAck: {
      if (awaiting_resume_ack_ && frame.session == resume_ack_session_) {
        resume_ack_offset_ = frame.offset;
        awaiting_resume_ack_ = false;
      }
      return;  // unsolicited acks (duplicated frames) are harmless
    }
    case FrameType::kHeartbeat: {
      if (frame.seq == 0 && frame.token != 0 &&
          frame.token == waiting_token_) {
        token_seen_ = true;  // the pong we are barriered on
      }
      return;
    }
    case FrameType::kAdminAck: {
      if (awaiting_admin_ && frame.token == admin_token_) {
        admin_result_ = frame.seq;
        admin_message_ = frame.message;
        awaiting_admin_ = false;
      }
      return;  // stale acks (duplicated frames) are harmless
    }
    case FrameType::kError: {
      // With reconnect on, protocol-class errors are treated as transport
      // damage: a corrupted stream can desync the server's decoder (or
      // materialize a garbage-but-parseable frame), and the resume handshake
      // revalidates everything from journaled state. A *genuine* client bug
      // would recur on every attempt and exhaust the retry budget, which
      // latches the underlying error — so nothing is silently swallowed.
      // Auth failures and shutdown are deterministic verdicts; latch those.
      const bool recoverable =
          options_.reconnect && (frame.code == ErrorCode::kProtocol ||
                                 frame.code == ErrorCode::kUnknownSession ||
                                 frame.code == ErrorCode::kDuplicateSession ||
                                 frame.code == ErrorCode::kInvalidSegment);
      if (recoverable) {
        if (!transport_broken_) {
          transport_broken_ = true;
          transport_reason_ = std::string("server error (") +
                              ErrorCodeName(frame.code) + "): " +
                              frame.message;
        }
        return;
      }
      if (fatal_.ok()) {
        fatal_ = util::Status::FailedPrecondition(
            std::string("server error (") + ErrorCodeName(frame.code) +
            "): " + frame.message);
      }
      return;
    }
    default:
      if (fatal_.ok()) {
        fatal_ = util::Status::Internal("server sent a client-only frame");
      }
      return;
  }
}

util::Status Client::RunResends() {
  for (auto& [id, session] : sessions_) {
    if (session.shutdown) continue;
    if (session.replay_resend_from >= 0) {
      // Refill the replayed prefix from the backpressure gap, then force
      // the in-flight tail to follow in seq order (the server bounced it
      // out_of_order while the gap was open).
      const uint64_t from = static_cast<uint64_t>(session.replay_resend_from);
      session.replay_resend_from = -1;
      for (uint64_t seq = from;
           seq < static_cast<uint64_t>(session.delivered) &&
           seq < session.journal.size();
           ++seq) {
        Frame push;
        push.type = FrameType::kPush;
        push.session = id;
        push.seq = seq;
        push.wire_seq = next_wire_seq_++;
        push.segment = session.journal[seq];
        session.replay_wire[seq] = push.wire_seq;
        ++stats_.pushes_sent;
        ++stats_.retransmits;
        m_pushes_sent_->Inc();
        m_retransmits_->Inc();
        CAUSALTAD_RETURN_IF_ERROR(SendFrame(push));
      }
      if (session.resend_from < 0 && !session.pending.empty()) {
        session.resend_from =
            static_cast<int64_t>(session.pending.front().seq);
      }
    }
    if (session.resend_from < 0) continue;
    const uint64_t from = static_cast<uint64_t>(session.resend_from);
    session.resend_from = -1;
    for (SentPoint& point : session.pending) {
      if (point.seq < from) continue;
      point.wire_seq = next_wire_seq_++;
      Frame push;
      push.type = FrameType::kPush;
      push.session = id;
      push.seq = point.seq;
      push.wire_seq = point.wire_seq;
      push.segment = point.segment;
      push.trace_id = point.trace_id;  // the trace follows the point
      ++stats_.pushes_sent;
      ++stats_.retransmits;
      m_pushes_sent_->Inc();
      m_retransmits_->Inc();
      CAUSALTAD_RETURN_IF_ERROR(SendFrame(push));
    }
  }
  return util::Status::Ok();
}

util::Status Client::PollBarrier(uint64_t session) {
  util::Stopwatch watch;
  while (true) {
    Frame poll_frame;
    poll_frame.type = FrameType::kPoll;
    poll_frame.session = session;
    poll_frame.token = next_token_++;
    const auto it = sessions_.find(session);
    if (it != sessions_.end()) {
      poll_frame.offset = static_cast<uint64_t>(it->second.delivered);
    }
    ++stats_.polls_sent;
    m_polls_sent_->Inc();
    waiting_token_ = poll_frame.token;
    token_seen_ = false;
    const uint64_t sent_epoch = epoch_;
    util::Status status = SendFrame(poll_frame);
    if (!status.ok()) {
      waiting_token_ = 0;
      return status;
    }
    if (epoch_ != sent_epoch) continue;  // died with the old conn: re-send
    double last_send_ms = watch.ElapsedMillis();
    while (!token_seen_) {
      if (!fatal_.ok()) {
        waiting_token_ = 0;
        return fatal_;
      }
      bool got = false;
      status = ReadOnce(std::min(50.0, options_.timeout_ms), &got);
      if (!status.ok()) {
        waiting_token_ = 0;
        return status;
      }
      if (epoch_ != sent_epoch) break;  // reconnected mid-wait: re-send
      const double elapsed = watch.ElapsedMillis();
      if (!token_seen_ && elapsed > options_.timeout_ms) {
        waiting_token_ = 0;
        return util::Status::IoError("timed out waiting for the server");
      }
      if (!token_seen_ && elapsed - last_send_ms > kBarrierResendMs) {
        status = SendFrame(poll_frame);  // same token: idempotent
        ++stats_.polls_sent;
        m_polls_sent_->Inc();
        if (!status.ok()) {
          waiting_token_ = 0;
          return status;
        }
        if (epoch_ != sent_epoch) break;
        last_send_ms = elapsed;
      }
    }
    if (token_seen_) {
      waiting_token_ = 0;
      return util::Status::Ok();
    }
  }
}

util::Status Client::Heartbeat() {
  if (!fatal_.ok()) return fatal_;
  util::Stopwatch watch;
  while (true) {
    Frame ping;
    ping.type = FrameType::kHeartbeat;
    ping.token = next_token_++;
    ping.seq = 1;
    waiting_token_ = ping.token;
    token_seen_ = false;
    const uint64_t sent_epoch = epoch_;
    util::Status status = SendFrame(ping);
    if (!status.ok()) {
      waiting_token_ = 0;
      return status;
    }
    if (epoch_ != sent_epoch) continue;
    double last_send_ms = watch.ElapsedMillis();
    while (!token_seen_) {
      if (!fatal_.ok()) {
        waiting_token_ = 0;
        return fatal_;
      }
      bool got = false;
      status = ReadOnce(std::min(50.0, options_.timeout_ms), &got);
      if (!status.ok()) {
        waiting_token_ = 0;
        return status;
      }
      if (epoch_ != sent_epoch) break;
      const double elapsed = watch.ElapsedMillis();
      if (!token_seen_ && elapsed > options_.timeout_ms) {
        waiting_token_ = 0;
        return util::Status::IoError("timed out waiting for a pong");
      }
      if (!token_seen_ && elapsed - last_send_ms > kBarrierResendMs) {
        status = SendFrame(ping);
        if (!status.ok()) {
          waiting_token_ = 0;
          return status;
        }
        if (epoch_ != sent_epoch) break;
        last_send_ms = elapsed;
      }
    }
    if (token_seen_) {
      waiting_token_ = 0;
      return util::Status::Ok();
    }
  }
}

util::Status Client::Admin(const std::string& command, uint64_t* result,
                           std::string* message) {
  if (!fatal_.ok()) return fatal_;
  util::Stopwatch watch;
  while (true) {
    Frame admin;
    admin.type = FrameType::kAdmin;
    admin.token = next_token_++;
    admin.message = command;
    awaiting_admin_ = true;
    admin_token_ = admin.token;
    const uint64_t sent_epoch = epoch_;
    util::Status status = SendFrame(admin);
    if (!status.ok()) {
      awaiting_admin_ = false;
      return status;
    }
    if (epoch_ != sent_epoch) continue;  // died with the old conn: re-send
    double last_send_ms = watch.ElapsedMillis();
    while (awaiting_admin_) {
      if (!fatal_.ok()) {
        awaiting_admin_ = false;
        return fatal_;
      }
      bool got = false;
      status = ReadOnce(std::min(50.0, options_.timeout_ms), &got);
      if (!status.ok()) {
        awaiting_admin_ = false;
        return status;
      }
      if (epoch_ != sent_epoch) break;  // reconnected mid-wait: re-send
      const double elapsed = watch.ElapsedMillis();
      if (awaiting_admin_ && elapsed > options_.timeout_ms) {
        awaiting_admin_ = false;
        return util::Status::IoError("timed out waiting for an admin ack");
      }
      if (awaiting_admin_ && elapsed - last_send_ms > kBarrierResendMs) {
        // Same token: the server's replay cache makes the resend idempotent.
        status = SendFrame(admin);
        if (!status.ok()) {
          awaiting_admin_ = false;
          return status;
        }
        if (epoch_ != sent_epoch) break;
        last_send_ms = elapsed;
      }
    }
    if (!awaiting_admin_ && epoch_ == sent_epoch) {
      if (result != nullptr) *result = admin_result_;
      if (message != nullptr) *message = admin_message_;
      return util::Status::Ok();
    }
  }
}

util::Status Client::ScrapeStats(std::string* text) {
  if (!fatal_.ok()) return fatal_;
  util::Stopwatch watch;
  while (true) {
    Frame scrape;
    scrape.type = FrameType::kStats;
    scrape.token = next_token_++;
    // The reply is an AdminAck, so the scrape rides the Admin barrier state
    // (one outstanding command per connection, same as Admin itself).
    awaiting_admin_ = true;
    admin_token_ = scrape.token;
    const uint64_t sent_epoch = epoch_;
    util::Status status = SendFrame(scrape);
    if (!status.ok()) {
      awaiting_admin_ = false;
      return status;
    }
    if (epoch_ != sent_epoch) continue;  // died with the old conn: re-send
    double last_send_ms = watch.ElapsedMillis();
    while (awaiting_admin_) {
      if (!fatal_.ok()) {
        awaiting_admin_ = false;
        return fatal_;
      }
      bool got = false;
      status = ReadOnce(std::min(50.0, options_.timeout_ms), &got);
      if (!status.ok()) {
        awaiting_admin_ = false;
        return status;
      }
      if (epoch_ != sent_epoch) break;  // reconnected mid-wait: re-send
      const double elapsed = watch.ElapsedMillis();
      if (awaiting_admin_ && elapsed > options_.timeout_ms) {
        awaiting_admin_ = false;
        return util::Status::IoError("timed out waiting for a stats ack");
      }
      if (awaiting_admin_ && elapsed - last_send_ms > kBarrierResendMs) {
        status = SendFrame(scrape);  // same token: a re-scrape is harmless
        if (!status.ok()) {
          awaiting_admin_ = false;
          return status;
        }
        if (epoch_ != sent_epoch) break;
        last_send_ms = elapsed;
      }
    }
    if (!awaiting_admin_ && epoch_ == sent_epoch) {
      if (admin_result_ != static_cast<uint64_t>(AdminStatus::kOk)) {
        return util::Status::FailedPrecondition("stats scrape refused: " +
                                                admin_message_);
      }
      if (text != nullptr) *text = admin_message_;
      return util::Status::Ok();
    }
  }
}

util::Status Client::Migrate() {
  if (!fatal_.ok()) return fatal_;
  if (!options_.reconnect) {
    return util::Status::FailedPrecondition(
        "Migrate requires options.reconnect");
  }
  // The existing recovery machinery IS the migration: close, redial (the
  // dialer picks the new destination), resume every session with journal
  // replay and offset dedupe.
  return Recover(util::Status::IoError("administrative migration"));
}

util::Status Client::Recover(util::Status cause) {
  if (!options_.reconnect || in_recovery_) {
    if (fatal_.ok()) fatal_ = std::move(cause);
    return fatal_;
  }
  in_recovery_ = true;
  util::Stopwatch watch;
  util::Status last = std::move(cause);
  // Decorrelated-jitter state: each outage restarts from base and wanders
  // independently per client (the rng is seeded from client_id).
  double prev_delay_ms = options_.reconnect_base_ms;
  for (int attempt = 0; attempt < options_.max_reconnect_attempts;
       ++attempt) {
    if (options_.decorrelated_backoff) {
      prev_delay_ms =
          DecorrelatedBackoffMs(prev_delay_ms, options_.reconnect_base_ms,
                                options_.reconnect_max_ms, &rng_);
      SleepMs(prev_delay_ms);
    } else {
      SleepMs(BackoffDelayMs(attempt, options_.reconnect_base_ms,
                             options_.reconnect_max_ms,
                             options_.reconnect_jitter, &rng_));
    }
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
    const int fd = Dial();
    if (fd < 0) {
      last = util::Status::IoError("redial failed");
      continue;
    }
    fd_ = fd;
    decoder_ = FrameDecoder();
    fatal_ = util::Status::Ok();
    waiting_token_ = 0;
    token_seen_ = false;
    awaiting_resume_ack_ = false;
    transport_broken_ = false;
    if (options_.fault != nullptr) fault_conn_ = options_.fault->Attach();
    ++epoch_;
    const util::Status handshake = ResumeHandshake();
    if (handshake.ok()) {
      ++stats_.reconnects;
      m_reconnects_->Inc();
      stats_.last_recovery_ms = watch.ElapsedMillis();
      in_recovery_ = false;
      return util::Status::Ok();
    }
    last = handshake;
  }
  in_recovery_ = false;
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  fatal_ = util::Status::IoError(
      "reconnect budget exhausted after " +
      std::to_string(options_.max_reconnect_attempts) +
      " attempts: " + last.message());
  return fatal_;
}

util::Status Client::ResumeHandshake() {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.tenant = options_.tenant;
  hello.auth_token = options_.auth_token;
  CAUSALTAD_RETURN_IF_ERROR(SendFrame(hello));
  CAUSALTAD_RETURN_IF_ERROR(PollBarrier(~uint64_t{0}));
  for (auto& [id, session] : sessions_) {
    if (session.broken || session.shutdown) continue;
    if (session.ended && session.pending.empty()) continue;  // fully done
    CAUSALTAD_RETURN_IF_ERROR(ResumeSession(id, &session));
  }
  total_inflight_ = 0;
  for (const auto& [id, session] : sessions_) {
    total_inflight_ += static_cast<int64_t>(session.pending.size());
  }
  return util::Status::Ok();
}

util::Status Client::ResumeSession(uint64_t id, Session* session) {
  Frame resume;
  resume.type = FrameType::kResume;
  resume.session = id;
  resume.resume_key = session->resume_key;
  resume.source = session->source;
  resume.destination = session->destination;
  resume.time_slot = session->time_slot;
  resume.offset = static_cast<uint64_t>(session->delivered);
  awaiting_resume_ack_ = true;
  resume_ack_session_ = id;
  util::Status status = SendFrame(resume);
  if (!status.ok()) {
    awaiting_resume_ack_ = false;
    return status;
  }
  util::Stopwatch watch;
  while (awaiting_resume_ack_) {
    if (!fatal_.ok()) {
      awaiting_resume_ack_ = false;
      return fatal_;
    }
    bool got = false;
    status = ReadOnce(std::min(50.0, options_.timeout_ms), &got);
    if (!status.ok()) {
      awaiting_resume_ack_ = false;
      return status;
    }
    if (awaiting_resume_ack_ && watch.ElapsedMillis() > options_.timeout_ms) {
      // A Resume is NOT idempotent-resendable on the same connection, so a
      // swallowed one fails the whole handshake attempt; the Recover loop
      // retries on a fresh connection.
      awaiting_resume_ack_ = false;
      return util::Status::IoError("timed out waiting for ResumeAck");
    }
  }
  const uint64_t replay_from = resume_ack_offset_;
  session->replay_wire.clear();
  session->replay_resend_from = -1;
  // Acked-but-journaled prefix first (fresh rebuild asks for seq 0; these
  // score into the server's emit-skip window and redeliver nothing).
  // Tracked in replay_wire: they can still bounce off server backpressure,
  // and those rejects must trigger a journal re-replay from the gap.
  for (uint64_t seq = replay_from;
       seq < static_cast<uint64_t>(session->delivered); ++seq) {
    if (seq >= session->journal.size()) {
      // The needed prefix was discarded (journal overflow): this session
      // cannot be rebuilt. End the server-side shell so it does not leak,
      // mark the session broken, and let the other sessions continue.
      session->broken = true;
      break;
    }
    Frame push;
    push.type = FrameType::kPush;
    push.session = id;
    push.seq = seq;
    push.wire_seq = next_wire_seq_++;
    push.segment = session->journal[seq];
    session->replay_wire[seq] = push.wire_seq;
    ++stats_.pushes_sent;
    ++stats_.retransmits;
    m_pushes_sent_->Inc();
    m_retransmits_->Inc();
    CAUSALTAD_RETURN_IF_ERROR(SendFrame(push));
  }
  if (session->broken) {
    total_inflight_ -= static_cast<int64_t>(session->pending.size());
    session->pending.clear();
    session->replay_wire.clear();
    Frame end;
    end.type = FrameType::kEnd;
    end.session = id;
    return SendFrame(end);
  }
  // Unscored tail from the in-flight buffer, with fresh wire seqs so any
  // straggler rejects from the old transmissions read as stale.
  for (SentPoint& point : session->pending) {
    if (point.seq < replay_from) continue;
    point.wire_seq = next_wire_seq_++;
    Frame push;
    push.type = FrameType::kPush;
    push.session = id;
    push.seq = point.seq;
    push.wire_seq = point.wire_seq;
    push.segment = point.segment;
    push.trace_id = point.trace_id;  // the trace follows the point
    ++stats_.pushes_sent;
    ++stats_.retransmits;
    m_pushes_sent_->Inc();
    m_retransmits_->Inc();
    CAUSALTAD_RETURN_IF_ERROR(SendFrame(push));
  }
  session->resend_from = -1;
  if (session->end_sent) {
    Frame end;
    end.type = FrameType::kEnd;
    end.session = id;
    CAUSALTAD_RETURN_IF_ERROR(SendFrame(end));
  }
  return util::Status::Ok();
}

util::Status Client::DrainTo(int64_t target, uint64_t focus_session) {
  util::Stopwatch watch;
  while (total_inflight_ > target) {
    if (!fatal_.ok()) return fatal_;
    CAUSALTAD_RETURN_IF_ERROR(RunResends());
    // Ask for deltas for every session with in-flight points; barrier on
    // the focus session's token, which is sent last.
    std::vector<uint64_t> ids;
    for (const auto& [id, session] : sessions_) {
      if (!session.pending.empty() && id != focus_session) {
        ids.push_back(id);
      }
    }
    if (sessions_.count(focus_session) != 0) ids.push_back(focus_session);
    if (ids.empty()) break;  // nothing left that could still score
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      Frame poll_frame;
      poll_frame.type = FrameType::kPoll;
      poll_frame.session = ids[i];
      poll_frame.token = next_token_++;
      poll_frame.offset =
          static_cast<uint64_t>(sessions_[ids[i]].delivered);
      ++stats_.polls_sent;
      m_polls_sent_->Inc();
      CAUSALTAD_RETURN_IF_ERROR(SendFrame(poll_frame));
    }
    CAUSALTAD_RETURN_IF_ERROR(PollBarrier(ids.back()));
    CAUSALTAD_RETURN_IF_ERROR(RunResends());
    if (total_inflight_ > target) {
      if (watch.ElapsedMillis() > options_.timeout_ms) {
        return util::Status::IoError("timed out draining in-flight points");
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.poll_backoff_ms));
    }
  }
  return util::Status::Ok();
}

util::Status Client::Hello() {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.tenant = options_.tenant;
  hello.auth_token = options_.auth_token;
  CAUSALTAD_RETURN_IF_ERROR(SendFrame(hello));
  // Barrier on a Poll for a session that cannot exist: the server answers
  // Polls in order (empty delta), so by the time it arrives the Hello
  // verdict — possibly an Error frame — has been processed.
  return PollBarrier(~uint64_t{0});
}

uint64_t Client::Begin(roadnet::SegmentId source,
                       roadnet::SegmentId destination, int32_t time_slot) {
  const uint64_t id = next_session_++;
  Session state;
  state.source = source;
  state.destination = destination;
  state.time_slot = time_slot;
  if (options_.reconnect) {
    state.resume_key = Mix(client_id_ ^ Mix(id + 1));
    if (state.resume_key == 0) state.resume_key = 1;
  }
  const uint64_t resume_key = state.resume_key;
  sessions_.emplace(id, std::move(state));
  Frame begin;
  begin.type = FrameType::kBegin;
  begin.session = id;
  begin.source = source;
  begin.destination = destination;
  begin.time_slot = time_slot;
  begin.resume_key = resume_key;
  (void)SendFrame(begin);  // pipelined; failures latch into status()
  return id;
}

util::Status Client::Push(uint64_t session, roadnet::SegmentId segment,
                          uint64_t trace_id) {
  if (!fatal_.ok()) return fatal_;
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.ended) {
    return util::Status::InvalidArgument("unknown or ended session");
  }
  if (it->second.shutdown) {
    return util::Status::FailedPrecondition("service shut down");
  }
  if (it->second.broken) {
    return util::Status::FailedPrecondition(
        "session lost in reconnect (journal overflow)");
  }
  Session& state = it->second;
  SentPoint point;
  point.seq = state.next_seq++;
  point.wire_seq = next_wire_seq_++;
  point.segment = segment;
  point.trace_id = trace_id != 0 ? trace_id : MaybeMintTraceId();
  if (point.trace_id != 0) point.sent_ms = obs::TraceNowMs();
  state.pending.push_back(point);
  ++total_inflight_;
  if (options_.reconnect && !state.journal_overflow) {
    state.journal.push_back(segment);
    if (static_cast<int64_t>(state.journal.size()) >
        options_.max_journal_points) {
      state.journal_overflow = true;
      state.journal.clear();
      state.journal.shrink_to_fit();
    }
  }
  Frame push;
  push.type = FrameType::kPush;
  push.session = session;
  push.seq = point.seq;
  push.wire_seq = point.wire_seq;
  push.segment = segment;
  push.trace_id = point.trace_id;
  ++stats_.pushes_sent;
  m_pushes_sent_->Inc();
  CAUSALTAD_RETURN_IF_ERROR(SendFrame(push));
  if (total_inflight_ >= options_.max_inflight) {
    // Window full: drain to half so pushes batch between drains.
    CAUSALTAD_RETURN_IF_ERROR(
        DrainTo(std::max<int64_t>(options_.max_inflight / 2, 0), session));
    if (state.shutdown) {
      return util::Status::FailedPrecondition("service shut down");
    }
  }
  return util::Status::Ok();
}

util::StatusOr<PushOutcome> Client::TryPush(uint64_t session,
                                            roadnet::SegmentId segment) {
  if (!fatal_.ok()) return fatal_;
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.ended) {
    return util::Status::InvalidArgument("unknown or ended session");
  }
  if (it->second.shutdown) return PushOutcome::kShutdown;
  if (it->second.broken) {
    return util::Status::FailedPrecondition(
        "session lost in reconnect (journal overflow)");
  }
  Session& state = it->second;
  SentPoint point;
  point.seq = state.next_seq;
  point.wire_seq = next_wire_seq_++;
  point.segment = segment;
  point.trace_id = MaybeMintTraceId();
  if (point.trace_id != 0) point.sent_ms = obs::TraceNowMs();
  Frame push;
  push.type = FrameType::kPush;
  push.session = session;
  push.seq = point.seq;
  push.wire_seq = point.wire_seq;
  push.segment = segment;
  push.trace_id = point.trace_id;
  state.pending.push_back(point);
  ++state.next_seq;
  ++total_inflight_;
  ++stats_.pushes_sent;
  m_pushes_sent_->Inc();
  if (options_.reconnect && !state.journal_overflow) {
    state.journal.push_back(segment);
    if (static_cast<int64_t>(state.journal.size()) >
        options_.max_journal_points) {
      state.journal_overflow = true;
      state.journal.clear();
      state.journal.shrink_to_fit();
    }
  }
  probe_wire_seq_ = point.wire_seq;
  probe_rejected_ = false;
  util::Status status = SendFrame(push);
  if (status.ok()) status = PollBarrier(session);
  probe_wire_seq_ = 0;
  if (!status.ok()) return status;
  if (!probe_rejected_) return PushOutcome::kAccepted;
  // The probe was rejected and dropped; un-assign its seq so the next push
  // of this session reuses it (the server never advanced past it).
  if (options_.reconnect && !state.journal_overflow &&
      state.journal.size() == state.next_seq) {
    state.journal.pop_back();
  }
  --state.next_seq;
  switch (probe_reason_) {
    case RejectReason::kSessionFull:
      return PushOutcome::kSessionFull;
    case RejectReason::kShardFull:
      return PushOutcome::kShardFull;
    case RejectReason::kQuota:
      return PushOutcome::kQuota;
    case RejectReason::kShutdown:
      state.shutdown = true;
      return PushOutcome::kShutdown;
    case RejectReason::kOutOfOrder:
      break;
  }
  return util::Status::Internal(
      "push rejected out of order: the session stream has a gap");
}

util::Status Client::End(uint64_t session) {
  if (!fatal_.ok()) return fatal_;
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.ended) {
    return util::Status::InvalidArgument("unknown or ended session");
  }
  if (it->second.broken) {
    return util::Status::FailedPrecondition(
        "session lost in reconnect (journal overflow)");
  }
  util::Stopwatch watch;
  while (!it->second.pending.empty()) {
    if (it->second.shutdown) break;  // dropped tail: nothing more will score
    if (it->second.broken) {
      return util::Status::FailedPrecondition(
          "session lost in reconnect (journal overflow)");
    }
    CAUSALTAD_RETURN_IF_ERROR(RunResends());
    CAUSALTAD_RETURN_IF_ERROR(PollBarrier(session));
    if (!it->second.pending.empty()) {
      if (watch.ElapsedMillis() > options_.timeout_ms) {
        return util::Status::IoError("timed out draining session");
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.poll_backoff_ms));
    }
  }
  it->second.ended = true;
  it->second.end_sent = true;  // before the send: a lost End is replayed
  Frame end;
  end.type = FrameType::kEnd;
  end.session = session;
  return SendFrame(end);
}

util::StatusOr<std::vector<double>> Client::Finish(uint64_t session) {
  CAUSALTAD_RETURN_IF_ERROR(End(session));
  const auto it = sessions_.find(session);
  std::vector<double> scores = std::move(it->second.scores);
  sessions_.erase(it);
  return scores;
}

util::StatusOr<std::vector<double>> Client::Poll(uint64_t session) {
  if (!fatal_.ok()) return fatal_;
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return util::Status::InvalidArgument("unknown session");
  }
  if (it->second.broken) {
    return util::Status::FailedPrecondition(
        "session lost in reconnect (journal overflow)");
  }
  CAUSALTAD_RETURN_IF_ERROR(RunResends());
  CAUSALTAD_RETURN_IF_ERROR(PollBarrier(session));
  std::vector<double> scores = std::move(it->second.scores);
  it->second.scores.clear();
  return scores;
}

util::Status Client::ProcessIncoming(double timeout_ms) {
  bool got = true;
  // First read waits up to timeout_ms; then drain whatever else is ready.
  CAUSALTAD_RETURN_IF_ERROR(ReadOnce(timeout_ms, &got));
  while (got) {
    CAUSALTAD_RETURN_IF_ERROR(ReadOnce(0.0, &got));
  }
  return RunResends();
}

}  // namespace net
}  // namespace causaltad
