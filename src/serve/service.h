#ifndef CAUSALTAD_SERVE_SERVICE_H_
#define CAUSALTAD_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "serve/session_backend.h"
#include "serve/streaming.h"
#include "util/latency_histogram.h"

namespace causaltad {
namespace serve {

/// StreamingService knobs. See README.md in this directory for the
/// service/pump/backpressure contract.
struct ServiceOptions {
  /// StreamingBatcher shards. The batcher is single-consumer by design, so
  /// the service scales past one pump's step rate by hashing sessions
  /// across shards; the model is shared read-only.
  int num_shards = 1;
  /// Run one background pump thread per shard around StepIfReady(). With
  /// pumping off the caller drives admission via StepAll()/Flush() — the
  /// benches A/B both modes.
  bool pump = true;
  /// Backpressure: Push returns kSessionFull once one session has this
  /// many unscored points queued (<= 0 disables). A well-behaved producer
  /// slows down; the session's scores stay exact.
  int64_t max_session_pending = 32;
  /// Load shedding: Push returns kShardFull once the session's shard holds
  /// this many queued points in total (<= 0 disables). The point is NOT
  /// enqueued — the caller degrades (drops the trip, fails the request)
  /// instead of growing an unbounded queue. During a model swap the bound
  /// applies per generation (each generation is its own batcher).
  int64_t max_shard_queued = 4096;
  /// Per-shard engine knobs (batch rows, admission deadline, injectable
  /// clock, SD cache). `queue_wait` is overwritten: the service wires every
  /// shard to its own histogram (per-shard, so the adaptive controller can
  /// steer each shard independently; stats() merges them).
  StreamingOptions batcher;

  /// Adaptive per-shard deadlines: when > 0, a per-shard controller tunes
  /// that shard's admission deadline (StreamingOptions::max_delay_ms)
  /// toward this target p95 queue wait in ms. Every adapt_interval_ms (on
  /// the batcher clock, so tests fake it) the controller looks at the p95
  /// queue wait observed since its last adjustment and scales the deadline
  /// multiplicatively: above-target waits shrink it (admit sooner), waits
  /// comfortably under target grow it (fuller batches), clamped to
  /// [min_delay_ms, max_delay_ms_cap] and at most 2x / 0.5x per step.
  /// 0 disables adaptation (the configured max_delay_ms stays fixed).
  double target_queue_wait_p95_ms = 0.0;
  /// Controller cadence; windows with fewer than adapt_min_samples scored
  /// points are skipped (the window keeps accumulating).
  double adapt_interval_ms = 50.0;
  double min_delay_ms = 0.05;
  double max_delay_ms_cap = 50.0;
  int64_t adapt_min_samples = 32;

  /// Metrics sink: the service registers its ops counters and per-shard
  /// queue-wait histograms here (null = obs::Registry::Default()). Inject a
  /// private registry when several services share one process and need
  /// separate expositions (the router fleet tests do).
  obs::Registry* registry = nullptr;
  /// Span sink for traced points (null = tracing off). Forwarded to every
  /// shard batcher with trace_where = "shard=<i>".
  obs::Tracer* tracer = nullptr;
};

/// Ops counters exported by StreamingService::stats().
struct ServiceStats {
  int64_t sessions_begun = 0;
  int64_t points_accepted = 0;
  int64_t rejected_session_full = 0;  // backpressure (not enqueued)
  int64_t rejected_shard_full = 0;    // load shed (not enqueued)
  int64_t points_scored = 0;
  int64_t steps = 0;  // batches that scored >= 1 point, all shards
  /// Mean admitted fraction of a batch: points_scored / (steps ·
  /// max_batch_rows). Low occupancy with high queue wait means the
  /// deadline, not the batch size, is pacing admission.
  double step_occupancy = 0.0;
  /// points_scored / wall-seconds from construction to now (frozen at
  /// Shutdown). Real time, even when the shards run on a fake clock.
  double points_per_sec = 0.0;
  /// Queue wait (Push to batch admission) percentiles in ms, merged across
  /// the per-shard util::LatencyHistograms.
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p95_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  /// Hot-swap lifecycle: SwapModel calls accepted, old generations retired
  /// after draining, and generations currently live across all shards
  /// (num_shards when no swap is in flight).
  int64_t model_swaps = 0;
  int64_t generations_retired = 0;
  int64_t generations_live = 0;
};

/// Production serving front-end over N StreamingBatcher shards: sessions
/// hash across shards at Begin, one background pump thread per shard runs
/// deadline-bounded admission (StepIfReady), Push applies backpressure and
/// load shedding, and stats() exports throughput/occupancy/queue-wait
/// counters. Per-session score parity with a single StreamingBatcher is
/// exact — a session lives on one shard for its whole life and shard
/// composition never changes per-row arithmetic (tests/service_test.cc
/// asserts it).
///
/// Zero-downtime model swap: SwapModel(new_model) starts a fresh batcher
/// generation per shard bound to the new weights. Sessions begun after the
/// swap land on the new generation; sessions begun before it finish on the
/// old model (a session's whole life stays inside one batcher, so its
/// scores are exactly the single-model scores). Drained old generations
/// are retired by the pump (or StepAll when pumping is off). Every model
/// ever swapped in must outlive the service — generations hold raw
/// pointers, and the caller owns model lifetime.
///
/// Thread-safety: all public methods may be called from any thread. Scores
/// are still polled per session in feed order.
class StreamingService : public SessionBackend {
 public:
  explicit StreamingService(const core::CausalTad* model,
                            ServiceOptions options = {});
  StreamingService(const core::CausalTad* model, core::ScoreVariant variant,
                   double lambda, ServiceOptions options = {});
  /// Calls Shutdown().
  ~StreamingService() override;

  StreamingService(const StreamingService&) = delete;
  StreamingService& operator=(const StreamingService&) = delete;

  /// Registers a trip on a hashed shard and returns its service-wide id.
  SessionId BeginSession(roadnet::SegmentId source,
                         roadnet::SegmentId destination,
                         int time_slot) override;
  SessionId Begin(const traj::Trip& trip);

  /// Rebuild-at-offset registration for resume/replay (the net server's
  /// fault-recovery path): the session's first `emit_skip` scored points
  /// advance its state but are not queued for Poll. Replaying a session's
  /// journaled prefix through this reproduces the interrupted score stream
  /// exactly, with delivery restarting at index emit_skip.
  SessionId BeginSessionAt(roadnet::SegmentId source,
                           roadnet::SegmentId destination, int time_slot,
                           int64_t emit_skip) override;

  /// Queues the session's next observed point, subject to the
  /// backpressure/shedding bounds. Only kAccepted enqueues. After Shutdown()
  /// has begun, returns the terminal kShutdown instead — a Push racing
  /// Shutdown either lands before the final flush (and is scored) or is
  /// rejected; it can never be accepted and then silently dropped.
  PushStatus Push(SessionId id, roadnet::SegmentId segment);

  /// Push carrying a sampled trace identity: a nonzero trace_id rides the
  /// point through admission and the shard batcher records
  /// queue_wait/compute/emit spans for it into options.tracer.
  PushStatus Push(SessionId id, roadnet::SegmentId segment,
                  uint64_t trace_id) override;

  void End(SessionId id) override;

  /// Drains the session's scores emitted since the last Poll, feed order.
  std::vector<double> Poll(SessionId id) override;

  /// One StepIfReady pass over every generation of every shard (manual
  /// pumping when options.pump is false); returns points scored. Also runs
  /// the adaptive-deadline controller and generation retirement, so a
  /// manually-pumped service gets the full lifecycle.
  int64_t StepAll();

  /// Drains every queued point on every shard (deadline bypassed).
  void Flush();

  /// Atomically directs all FUTURE BeginSessions to `model` while live
  /// sessions finish on the weights they started with. Fast: constructs one
  /// batcher per shard (no weight copy — batchers share the model's packed
  /// weights) and flips the generation pointer; any slow weight loading
  /// belongs to the caller, before this call (the net server stages in a
  /// background thread). `model` must outlive the service. Returns false
  /// iff the service has shut down.
  bool SwapModel(const core::CausalTad* model) override;

  /// The model serving new sessions (the latest SwapModel argument, or the
  /// constructor model before any swap).
  const core::CausalTad* current_model() const;

  /// Runs one adaptive-deadline pass over every shard (no-op unless
  /// options.target_queue_wait_p95_ms > 0 and the shard's interval has
  /// elapsed on the batcher clock). The pump calls this automatically;
  /// public so fake-clock tests and manual pumps can drive it.
  void AdaptDeadlines();

  /// Current admission deadline of one shard (the adaptive controller's
  /// output; options.batcher.max_delay_ms until it first adjusts).
  double shard_delay_ms(int shard) const;

  /// Stops the pump threads, then flushes all shards so every accepted
  /// point has a score before the call returns. Idempotent; Poll keeps
  /// working afterwards.
  void Shutdown();

  ServiceStats stats() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t queued_points() const;
  int64_t tracked_sessions() const;

 private:
  /// Where a service session lives: which generation batcher, and its id
  /// inside that batcher. Service ids stay bijective per shard
  /// (inner * num_shards + shard); the route map resolves inner -> home
  /// batcher because generation-local ids restart per batcher.
  struct Route {
    StreamingBatcher* batcher = nullptr;
    SessionId id = -1;
  };

  struct Shard {
    /// Guards gens/route/next_inner. Push/Poll/End take it shared (their
    /// mutual exclusion lives inside the batcher); Begin, SwapModel, and
    /// retirement take it exclusive.
    mutable std::shared_mutex gens_mu;
    /// Oldest generation first; back() serves new sessions.
    std::vector<std::unique_ptr<StreamingBatcher>> gens;
    std::unordered_map<SessionId, Route> route;
    SessionId next_inner = 0;
    int index = 0;  // position in shards_, for the "shard" metric label
    /// Registry-owned queue-wait histogram (label shard="<i>") — the same
    /// series backs the exposition, stats(), and the adaptive controller.
    obs::Histogram* queue_wait = nullptr;
    std::thread pump;
    std::mutex mu;
    std::condition_variable cv;  // wakes the pump early on Shutdown
    /// Adaptive-deadline controller state (guarded by adapt_mu).
    std::mutex adapt_mu;
    util::LatencyHistogram::Snapshot adapt_base;
    /// Histogram state at service construction: stats() windows the
    /// registry-owned histogram to this instance's samples.
    util::LatencyHistogram::Snapshot stats_base;
    double last_adapt_ms = 0.0;
  };

  void PumpLoop(Shard* shard);
  Shard* ShardOf(SessionId id, SessionId* inner);
  double NowMs() const;
  std::unique_ptr<StreamingBatcher> MakeBatcher(const core::CausalTad* model,
                                                Shard* shard,
                                                double max_delay_ms) const;
  void AdaptShard(Shard* shard);
  /// Retires drained non-current generations (and their route entries).
  void MaybeRetire(Shard* shard);

  ServiceOptions options_;
  obs::Registry* registry_ = nullptr;  // options_.registry or Default()
  core::ScoreVariant variant_;
  double lambda_ = 0.0;
  /// True when constructed via the model-λ constructor: a swap then adopts
  /// the NEW model's λ instead of freezing the old one.
  bool lambda_from_model_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<const core::CausalTad*> model_{nullptr};
  std::atomic<uint64_t> next_session_{0};
  std::atomic<bool> stop_{false};
  // Push holds this shared; Shutdown takes it exclusive to flip accepting_
  // BEFORE joining the pumps and flushing. An in-flight Push therefore
  // either enqueues before the flush (scored) or observes accepting_ ==
  // false (kShutdown) — accepted-but-never-scored is impossible.
  std::shared_mutex accepting_mu_;
  bool accepting_ = true;
  bool shut_down_ = false;
  mutable std::mutex shutdown_mu_;
  std::mutex swap_mu_;  // serializes SwapModel calls
  // Ops counters: instance-owned atomics mirrored into service_* registry
  // series (ScopedCounter), so stats() stays per-instance and exact even
  // when several concurrent services share one registry (Default()), while
  // the exposition accumulates across all of them.
  obs::ScopedCounter sessions_begun_;
  obs::ScopedCounter points_accepted_;
  obs::ScopedCounter rejected_session_full_;
  obs::ScopedCounter rejected_shard_full_;
  obs::ScopedCounter model_swaps_;
  obs::ScopedCounter generations_retired_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point stop_time_;
};

}  // namespace serve
}  // namespace causaltad

#endif  // CAUSALTAD_SERVE_SERVICE_H_
