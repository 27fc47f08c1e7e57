#ifndef CAUSALTAD_SERVE_STREAMING_H_
#define CAUSALTAD_SERVE_STREAMING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/causal_tad.h"
#include "obs/trace.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"
#include "util/latency_histogram.h"

namespace causaltad {
namespace serve {

/// Serving knobs. See README.md in this directory for the API contract
/// (ordering, deadlines, thread-safety).
struct StreamingOptions {
  /// Hard cap on the sessions advanced by one batched step (the admission
  /// batch size — also the row count of the fused [B, hidden] GRU step).
  int64_t max_batch_rows = 256;
  /// Deadline-bounded admission: StepIfReady() fires a partial batch once
  /// the oldest queued point has waited this long.
  double max_delay_ms = 2.0;
  /// Injectable monotonic clock in milliseconds (tests fake it); null uses
  /// the process steady clock.
  std::function<double()> now_ms;
  /// Cached SD-pair trip contexts (posterior, h0, sd_nll + kl) before the
  /// cache is reset. Concurrent orders between the same endpoints — the
  /// paper's ride-hailing workload — then share one SD encode.
  int64_t sd_cache_capacity = 4096;
  /// Optional queue-wait sink: each scored point's (batch-admission time −
  /// Push time) in ms is recorded here. Must outlive the batcher. Add() is
  /// lock-free, so the StreamingService shares one histogram across all
  /// its shards' pump threads.
  util::LatencyHistogram* queue_wait = nullptr;
  /// Span sink for sampled traced points (null = no tracing). A push that
  /// carries a nonzero trace id records queue_wait / compute / emit spans
  /// here, tagged with trace_where ("shard=2") — the backend-shard legs of
  /// the cross-tier span chain. Must outlive the batcher.
  obs::Tracer* tracer = nullptr;
  std::string trace_where;
};

using SessionId = int64_t;

/// Outcome of a bounded-queue TryPush (the backpressure contract the
/// StreamingService surfaces to callers). Only kAccepted enqueues the
/// point; both rejection statuses leave the session's score stream exactly
/// as it was, so the caller decides whether to retry (kSessionFull — this
/// one trip is producing faster than it drains) or degrade (kShardFull —
/// the whole shard is saturated and admission is shedding load).
enum class PushStatus {
  kAccepted,
  kSessionFull,
  kShardFull,
  /// Terminal: the StreamingService has shut down — the point was not
  /// enqueued and never will be. Only the service returns this (the batcher
  /// has no lifecycle); producers must stop feeding the session.
  kShutdown,
};

class StreamingBatcher;

/// Non-owning handle over one trip's stream inside a StreamingBatcher.
/// Thin forwarding wrapper; copyable, does not End() on destruction.
class StreamingSession {
 public:
  StreamingSession() = default;
  StreamingSession(StreamingBatcher* batcher, SessionId id)
      : batcher_(batcher), id_(id) {}

  void Push(roadnet::SegmentId segment);
  void End();
  std::vector<double> Poll();
  SessionId id() const { return id_; }

 private:
  StreamingBatcher* batcher_ = nullptr;
  SessionId id_ = -1;
};

/// Multi-trip streaming engine: every concurrently-active trip owns one row
/// of a shared [capacity, hidden] state matrix, and one Step() advances all
/// sessions with a queued point by one TgVae::StepNllRows call (a fused
/// batched GRU step plus per-row successor-masked softmaxes, sharded across
/// the worker pool) and scaling-table lookups. New SD pairs go through
/// TgVae::EncodeSdBatch (cached per pair). Per-point cost is O(1) in trip
/// length — this is the paper's online protocol (§V-D) served batched,
/// against CausalTad::BeginTrip's one-session-per-trip sessions.
///
/// These are the same two functions CausalTad's sessions and
/// ScoreBatch/ScoreCheckpoints run, over the same serving tables, so a trip
/// advanced alone reads bit-identical scores on all three paths; within a
/// batch the scores match Score(trip, k) to the streaming tests' parity
/// bound.
/// kScalingOnly sessions hold no state row — their per-point ELBOs batch
/// through RpVae::SegmentNllBatch per step instead.
class StreamingBatcher {
 public:
  /// Serves the full debiased score (ScoreVariant::kFull, model λ).
  explicit StreamingBatcher(const core::CausalTad* model,
                            StreamingOptions options = {});
  /// Serves an ablation variant (λ ignored unless kFull).
  StreamingBatcher(const core::CausalTad* model, core::ScoreVariant variant,
                   double lambda, StreamingOptions options = {});

  /// Registers a new active trip; its SD pair and departure slot are the
  /// context fixed when the order is placed.
  SessionId BeginSession(roadnet::SegmentId source,
                         roadnet::SegmentId destination, int time_slot);

  /// BeginSession for a prefix REPLAY: the first `emit_skip` scored points
  /// advance the session's state exactly as normal pushes but their scores
  /// are not queued for Poll — the consumer already holds them. This is the
  /// rebuild-session-at-offset path behind net resume: replaying a journaled
  /// prefix through it reproduces the interrupted stream bit-identically
  /// (per-row arithmetic is independent of batch composition) and delivery
  /// restarts at score index emit_skip with no duplicates.
  SessionId BeginSessionAt(roadnet::SegmentId source,
                           roadnet::SegmentId destination, int time_slot,
                           int64_t emit_skip);
  /// Convenience: BeginSession from a trip's route endpoints, wrapped in a
  /// handle.
  StreamingSession Begin(const traj::Trip& trip);

  /// Queues the trip's next observed point. Points of one session are
  /// processed in feed order, at most one per Step (so a session that
  /// pushes a burst drains over several steps while other sessions
  /// interleave).
  void Push(SessionId id, roadnet::SegmentId segment);

  /// Bounded-queue Push: rejects with kSessionFull once the session
  /// already has max_session_pending unscored points, and with kShardFull
  /// once the batcher holds max_queued_points in total (<= 0 disables
  /// either bound). The check and the enqueue are one critical section.
  /// A nonzero trace_id rides the point through admission and records
  /// queue_wait/compute/emit spans into StreamingOptions::tracer.
  PushStatus TryPush(SessionId id, roadnet::SegmentId segment,
                     int64_t max_session_pending,
                     int64_t max_queued_points = 0, uint64_t trace_id = 0);

  /// Marks the trip finished. Its state row is released (and the state
  /// matrix compacted when mostly free) once every queued point has been
  /// scored; queued points are still processed and Poll() keeps working.
  void End(SessionId id);

  /// Runs one batched advance over the queued points — up to
  /// max_batch_rows sessions, FIFO by queue arrival. Returns the number of
  /// points scored.
  int64_t Step();

  /// Steps until no queued point remains.
  void Flush();

  /// Deadline-bounded admission: Step() only if the batch is full or the
  /// oldest queued point has waited at least max_delay_ms. A serving pump
  /// loop calls this; returns the number of points scored (0 = not ready).
  int64_t StepIfReady();

  /// Drains the scores emitted for `id` since the last Poll, in feed
  /// order. A fully-polled ended session is forgotten.
  std::vector<double> Poll(SessionId id);

  /// Poll that also reports whether this call (or an earlier one) forgot
  /// the session — i.e. the batcher no longer tracks `id`. A caller that
  /// keeps its own id→batcher routing table (StreamingService generations)
  /// uses this to drop its entry in the same step.
  std::vector<double> Poll(SessionId id, bool* forgotten);

  /// Live view/control of the deadline-admission knob, for the adaptive
  /// controller in StreamingService. Takes the batcher lock; the new value
  /// applies from the next StepIfReady().
  double max_delay_ms() const;
  void set_max_delay_ms(double ms);

  /// Sessions holding a live state row / allocated rows / queued points —
  /// introspection for tests and ops dashboards.
  int64_t active_rows() const;
  int64_t capacity_rows() const;
  int64_t queued_points() const;
  /// Sessions the batcher still tracks (live, or ended with unpolled
  /// scores) — the session-leak regression tests watch this.
  int64_t tracked_sessions() const;

  /// Cumulative ops counters: batches that scored at least one point, and
  /// total points scored. Step occupancy is points / (steps ·
  /// max_batch_rows).
  struct Counters {
    int64_t steps = 0;
    int64_t points = 0;
  };
  Counters counters() const;

 private:
  /// One queued observation; the enqueue time rides along so deadline
  /// admission and the queue-wait histogram see the point's true age even
  /// after its session is re-queued behind a burst.
  struct PendingPoint {
    roadnet::SegmentId segment = roadnet::kInvalidSegment;
    double enqueued_ms = 0.0;
    uint64_t trace_id = 0;  // sampled trace identity, 0 = untraced
  };

  struct Session {
    int64_t row = -1;  // shared-state row; -1 for kScalingOnly sessions
    roadnet::SegmentId last = roadnet::kInvalidSegment;
    bool has_last = false;
    bool ended = false;
    int table_slot = 0;  // scaling-table slot (kFull)
    int rp_slot = 0;     // RP-VAE slot (kScalingOnly)
    // sd_nll + kl + Σ step NLLs, summed in ScoreCheckpoints' order
    // (kScalingOnly: Σ RP-VAE ELBOs).
    double nll = 0.0;
    double scaling = 0.0;
    int64_t emit_skip = 0;  // scores still to compute-but-not-queue (replay)
    bool in_ready = false;
    /// A Step() admitted one of this session's points and has not committed
    /// it yet. While set: the session cannot be admitted again (feed order),
    /// its state row cannot be released, and the entry cannot be forgotten
    /// — the in-flight compute still writes back through it.
    bool in_flight = false;
    std::deque<PendingPoint> pending;
    std::vector<double> scores;
  };

  /// One admitted batch between AdmitLocked and CommitLocked. Everything
  /// the kernel pass reads is snapshotted or pinned here, so the compute
  /// runs with the batcher mutex RELEASED: admitted ids and points, the
  /// transition partition with a local copy of the involved state rows
  /// (the shared matrix may be reallocated or compacted by concurrent
  /// Begin/End while we compute), and a shared_ptr pin on the TG-VAE
  /// serving tables (a concurrent re-Fit may swap them).
  struct BatchPlan {
    std::vector<SessionId> admitted;
    std::vector<roadnet::SegmentId> points;
    std::vector<uint64_t> trace_ids;  // parallel to admitted (0 = untraced)
    double compute_start_ms = 0.0;    // set around ComputeUnlocked when any
    double compute_dur_ms = 0.0;      // admitted point is traced
    // GRU-transition partition (row k of tr_states is transition k's state).
    std::vector<roadnet::SegmentId> tr_current, tr_next;
    std::vector<size_t> tr_admitted;
    std::vector<float> tr_states;
    std::vector<double> tr_nll;
    std::shared_ptr<const core::TgVae::ServingTables> tables;
    // kScalingOnly partition, batched per departure slot.
    std::vector<std::vector<roadnet::SegmentId>> slot_segments;
    std::vector<std::vector<size_t>> slot_owners;
    std::vector<int> slot_of;
    std::vector<std::vector<double>> slot_nll;
  };

  double Now() const;
  void ReadyPushLocked(SessionId id, double since);
  double ReadyPopLocked();
  PushStatus PushLocked(SessionId id, roadnet::SegmentId segment,
                        int64_t max_session_pending,
                        int64_t max_queued_points, uint64_t trace_id);
  /// ComputeUnlocked plus the traced-batch compute-span timing — the shared
  /// middle phase of Step/StepIfReady.
  void ComputePhase(BatchPlan* plan) const;
  /// Step phase 1 (under mu_): pop up to max_batch_rows ready sessions,
  /// mark them in flight, and snapshot their compute inputs into `plan`.
  void AdmitLocked(BatchPlan* plan);
  /// Step phase 2 (NO lock held): the fused GRU advance + NLL kernels over
  /// the snapshot. Touches no batcher state.
  void ComputeUnlocked(BatchPlan* plan) const;
  /// Step phase 3 (under mu_): write advanced state rows back (rows are
  /// re-looked-up — compaction may have moved them), emit scores, requeue
  /// or release sessions, clear in-flight marks. Returns points scored.
  int64_t CommitLocked(const BatchPlan& plan);
  int64_t AllocRowLocked();
  void ReleaseRowLocked(Session* session);
  void MaybeForgetLocked(SessionId id);
  void RefreshWeightsLocked();

  const core::CausalTad* model_;
  const core::TgVae* tg_;
  const core::RpVae* rp_;
  core::ScoreVariant variant_;
  double lambda_;
  StreamingOptions options_;
  // TG-VAE serving tables, shared with the model's serving cache so a
  // re-Fit under a live batcher cannot dangle. Re-checked against the model
  // on every BeginSession: when a re-Fit() / Load() has swapped in fresh
  // tables, the batcher adopts them and drops the sd_cache_ entries derived
  // from the old weights.
  std::shared_ptr<const core::TgVae::ServingTables> tables_;

  mutable std::mutex mu_;
  SessionId next_id_ = 0;
  std::unordered_map<SessionId, Session> sessions_;
  std::deque<SessionId> ready_;       // FIFO of sessions with queued points
  std::deque<double> ready_since_;    // oldest pending point's enqueue time
  // Sliding-window minimum of ready_since_ (non-decreasing; front is the
  // min). ready_since_ is NOT monotone — a re-queued burst session carries
  // its oldest pending point's original timestamp to the back — so the
  // deadline check needs the true minimum, not front().
  std::deque<double> ready_min_;
  int64_t queued_points_ = 0;
  int64_t steps_fired_ = 0;
  int64_t points_scored_ = 0;
  std::vector<float> states_;         // [capacity, hidden] row-major
  int64_t capacity_ = 0;
  std::vector<int64_t> free_rows_;
  struct SdContext {
    std::vector<float> h0;
    double base = 0.0;
  };
  std::unordered_map<uint64_t, SdContext> sd_cache_;
};

}  // namespace serve
}  // namespace causaltad

#endif  // CAUSALTAD_SERVE_STREAMING_H_
