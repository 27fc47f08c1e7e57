#include "serve/streaming.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace causaltad {
namespace serve {
namespace {

uint64_t SdKey(roadnet::SegmentId s, roadnet::SegmentId d) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
         static_cast<uint32_t>(d);
}

}  // namespace

void StreamingSession::Push(roadnet::SegmentId segment) {
  batcher_->Push(id_, segment);
}

void StreamingSession::End() { batcher_->End(id_); }

std::vector<double> StreamingSession::Poll() { return batcher_->Poll(id_); }

StreamingBatcher::StreamingBatcher(const core::CausalTad* model,
                                   StreamingOptions options)
    : StreamingBatcher(model, core::ScoreVariant::kFull, model->lambda(),
                       std::move(options)) {}

StreamingBatcher::StreamingBatcher(const core::CausalTad* model,
                                   core::ScoreVariant variant, double lambda,
                                   StreamingOptions options)
    : model_(model),
      tg_(&model->tg_vae()),
      rp_(&model->rp_vae()),
      variant_(variant),
      lambda_(lambda),
      options_(std::move(options)) {
  CAUSALTAD_CHECK(model != nullptr);
  CAUSALTAD_CHECK_GT(options_.max_batch_rows, 0);
  if (variant_ == core::ScoreVariant::kFull) {
    CAUSALTAD_CHECK(!model_->scaling_table().empty())
        << "call Fit() or Load() before serving the full score";
  }
  if (variant_ != core::ScoreVariant::kScalingOnly) {
    tables_ = model_->serving_tables();
  }
}

double StreamingBatcher::Now() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t StreamingBatcher::AllocRowLocked() {
  const int64_t hd = tg_->config().hidden_dim;
  if (free_rows_.empty()) {
    const int64_t grown = std::max<int64_t>(16, capacity_ * 2);
    states_.resize(grown * hd, 0.0f);
    for (int64_t r = grown - 1; r >= capacity_; --r) free_rows_.push_back(r);
    capacity_ = grown;
  }
  const int64_t row = free_rows_.back();
  free_rows_.pop_back();
  return row;
}

void StreamingBatcher::ReleaseRowLocked(Session* session) {
  if (session->row < 0) return;
  free_rows_.push_back(session->row);
  session->row = -1;

  // Row compaction on trip end: when the matrix is mostly free, move the
  // surviving rows to the front of a smaller matrix so the batched gathers
  // stay dense and the high-water capacity is given back.
  const int64_t live =
      capacity_ - static_cast<int64_t>(free_rows_.size());
  if (capacity_ <= 64 || live * 4 > capacity_) return;
  const int64_t hd = tg_->config().hidden_dim;
  const int64_t shrunk = std::max<int64_t>(16, live * 2);
  std::vector<float> compact(shrunk * hd, 0.0f);
  int64_t next = 0;
  for (auto& [id, s] : sessions_) {
    if (s.row < 0) continue;
    std::copy(states_.begin() + s.row * hd, states_.begin() + (s.row + 1) * hd,
              compact.begin() + next * hd);
    s.row = next++;
  }
  CAUSALTAD_CHECK_EQ(next, live);
  states_ = std::move(compact);
  capacity_ = shrunk;
  free_rows_.clear();
  for (int64_t r = shrunk - 1; r >= live; --r) free_rows_.push_back(r);
}

void StreamingBatcher::RefreshWeightsLocked() {
  if (variant_ == core::ScoreVariant::kScalingOnly) return;
  std::shared_ptr<const core::TgVae::ServingTables> current =
      model_->serving_tables();
  if (current.get() == tables_.get()) return;
  // A re-Fit()/Load() rebuilt the serving tables: the cached h0/base pairs
  // were encoded under the old weights, so they would silently mix weight
  // generations into new sessions' scores.
  tables_ = std::move(current);
  sd_cache_.clear();
}

SessionId StreamingBatcher::BeginSession(roadnet::SegmentId source,
                                         roadnet::SegmentId destination,
                                         int time_slot) {
  return BeginSessionAt(source, destination, time_slot, /*emit_skip=*/0);
}

SessionId StreamingBatcher::BeginSessionAt(roadnet::SegmentId source,
                                           roadnet::SegmentId destination,
                                           int time_slot, int64_t emit_skip) {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshWeightsLocked();
  const SessionId id = next_id_++;
  Session& s = sessions_[id];
  s.emit_skip = std::max<int64_t>(emit_skip, 0);
  s.rp_slot = rp_->time_conditioned() ? time_slot : 0;
  if (variant_ == core::ScoreVariant::kScalingOnly) return id;

  s.table_slot = variant_ == core::ScoreVariant::kFull &&
                         model_->scaling_table().num_slots() > 1
                     ? time_slot
                     : 0;
  // SD-pair context cache: one posterior/h0/sd_nll+kl per unique pair.
  const uint64_t key = SdKey(source, destination);
  auto it = sd_cache_.find(key);
  if (it == sd_cache_.end()) {
    if (static_cast<int64_t>(sd_cache_.size()) >=
        options_.sd_cache_capacity) {
      sd_cache_.clear();
    }
    const core::TgVae::SdContext ctx = tg_->EncodeSdBatch(
        std::span<const roadnet::SegmentId>(&source, 1),
        std::span<const roadnet::SegmentId>(&destination, 1));
    SdContext cached;
    cached.base = ctx.sd_nll[0] + ctx.kl[0];
    cached.h0.assign(ctx.h0.data(), ctx.h0.data() + ctx.h0.numel());
    it = sd_cache_.emplace(key, std::move(cached)).first;
  }
  s.nll = it->second.base;
  s.row = AllocRowLocked();
  std::copy(it->second.h0.begin(), it->second.h0.end(),
            states_.begin() + s.row * tg_->config().hidden_dim);
  return id;
}

StreamingSession StreamingBatcher::Begin(const traj::Trip& trip) {
  CAUSALTAD_CHECK(!trip.route.empty());
  return StreamingSession(
      this, BeginSession(trip.route.segments.front(),
                         trip.route.segments.back(), trip.time_slot));
}

void StreamingBatcher::Push(SessionId id, roadnet::SegmentId segment) {
  std::lock_guard<std::mutex> lock(mu_);
  PushLocked(id, segment, /*max_session_pending=*/0, /*max_queued_points=*/0,
             /*trace_id=*/0);
}

PushStatus StreamingBatcher::TryPush(SessionId id, roadnet::SegmentId segment,
                                     int64_t max_session_pending,
                                     int64_t max_queued_points,
                                     uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return PushLocked(id, segment, max_session_pending, max_queued_points,
                    trace_id);
}

PushStatus StreamingBatcher::PushLocked(SessionId id,
                                        roadnet::SegmentId segment,
                                        int64_t max_session_pending,
                                        int64_t max_queued_points,
                                        uint64_t trace_id) {
  auto it = sessions_.find(id);
  CAUSALTAD_CHECK(it != sessions_.end()) << "unknown session " << id;
  CAUSALTAD_CHECK(!it->second.ended) << "session " << id << " already ended";
  if (max_queued_points > 0 && queued_points_ >= max_queued_points) {
    return PushStatus::kShardFull;
  }
  if (max_session_pending > 0 &&
      static_cast<int64_t>(it->second.pending.size()) >=
          max_session_pending) {
    return PushStatus::kSessionFull;
  }
  const double now = Now();
  it->second.pending.push_back({segment, now, trace_id});
  ++queued_points_;
  if (!it->second.in_ready) {
    it->second.in_ready = true;
    // Oldest pending point's time, not this push's: with the session in
    // flight elsewhere, a leftover burst point may be older than we are.
    ReadyPushLocked(id, it->second.pending.front().enqueued_ms);
  }
  return PushStatus::kAccepted;
}

void StreamingBatcher::ReadyPushLocked(SessionId id, double since) {
  ready_.push_back(id);
  ready_since_.push_back(since);
  // Monotonic min-queue: drop dominated suffix entries so ready_min_ stays
  // non-decreasing with the running minimum at the front, O(1) amortized.
  while (!ready_min_.empty() && ready_min_.back() > since) {
    ready_min_.pop_back();
  }
  ready_min_.push_back(since);
}

double StreamingBatcher::ReadyPopLocked() {
  const double since = ready_since_.front();
  ready_since_.pop_front();
  if (!ready_min_.empty() && ready_min_.front() == since) {
    ready_min_.pop_front();
  }
  ready_.pop_front();
  return since;
}

void StreamingBatcher::End(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  CAUSALTAD_CHECK(it != sessions_.end()) << "unknown session " << id;
  it->second.ended = true;
  // An in-flight session keeps its row until the commit writes the advanced
  // state back and emits the score; the commit then releases it.
  if (it->second.pending.empty() && !it->second.in_flight) {
    ReleaseRowLocked(&it->second);
  }
  // A fire-and-forget caller (End with everything already polled) would
  // otherwise leave the entry behind forever — Poll() was the only
  // forgetting path.
  MaybeForgetLocked(id);
}

std::vector<double> StreamingBatcher::Poll(SessionId id) {
  return Poll(id, nullptr);
}

std::vector<double> StreamingBatcher::Poll(SessionId id, bool* forgotten) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  // A fully-drained ended session is forgotten by its last Poll; polling
  // again is normal for a periodic pump loop and just yields nothing.
  if (it == sessions_.end()) {
    if (forgotten != nullptr) *forgotten = true;
    return {};
  }
  std::vector<double> scores = std::move(it->second.scores);
  it->second.scores.clear();
  MaybeForgetLocked(id);
  if (forgotten != nullptr) {
    *forgotten = sessions_.find(id) == sessions_.end();
  }
  return scores;
}

double StreamingBatcher::max_delay_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.max_delay_ms;
}

void StreamingBatcher::set_max_delay_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.max_delay_ms = ms;
}

void StreamingBatcher::MaybeForgetLocked(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  const Session& s = it->second;
  if (s.ended && s.pending.empty() && s.scores.empty() && !s.in_ready &&
      !s.in_flight) {
    CAUSALTAD_CHECK_EQ(s.row, -1);
    sessions_.erase(it);
  }
}

int64_t StreamingBatcher::Step() {
  // Three-phase step: admission and commit hold the mutex, the kernel pass
  // between them does not — concurrent producers keep pushing (and other
  // Steps keep admitting disjoint sessions) while this batch computes.
  BatchPlan plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AdmitLocked(&plan);
  }
  if (plan.admitted.empty()) return 0;
  ComputePhase(&plan);
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(plan);
}

int64_t StreamingBatcher::StepIfReady() {
  BatchPlan plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return 0;
    // Deadline on the OLDEST waiting point anywhere in the queue (the
    // min-queue front), not the FIFO front: re-queued burst sessions sit at
    // the back with older carried timestamps.
    if (static_cast<int64_t>(ready_.size()) < options_.max_batch_rows &&
        Now() - ready_min_.front() < options_.max_delay_ms) {
      return 0;
    }
    AdmitLocked(&plan);
  }
  if (plan.admitted.empty()) return 0;
  ComputePhase(&plan);
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(plan);
}

void StreamingBatcher::ComputePhase(BatchPlan* plan) const {
  // Span timing only when this batch carries a traced point — the untraced
  // fast path runs the kernels with zero extra clock reads.
  bool traced = false;
  if (options_.tracer != nullptr) {
    for (const uint64_t id : plan->trace_ids) traced |= id != 0;
  }
  if (!traced) {
    ComputeUnlocked(plan);
    return;
  }
  plan->compute_start_ms = Now();
  ComputeUnlocked(plan);
  plan->compute_dur_ms = Now() - plan->compute_start_ms;
}

void StreamingBatcher::Flush() {
  while (Step() > 0) {
  }
}

void StreamingBatcher::AdmitLocked(BatchPlan* plan) {
  // Admit up to max_batch_rows sessions, FIFO, one queued point each.
  // Bounded scan of the current queue: sessions another Step still holds in
  // flight are re-queued, not admitted (feed order — their next point must
  // see the committed state), and must not make this loop spin.
  const double now = Now();
  const int64_t hd = tg_->config().hidden_dim;
  const size_t scan = ready_.size();
  for (size_t iter = 0;
       iter < scan && static_cast<int64_t>(plan->admitted.size()) <
                          options_.max_batch_rows;
       ++iter) {
    const SessionId id = ready_.front();
    const double since = ReadyPopLocked();
    Session& s = sessions_.at(id);
    if (s.in_flight) {
      ReadyPushLocked(id, since);
      continue;
    }
    s.in_ready = false;
    if (s.pending.empty()) continue;
    s.in_flight = true;
    plan->admitted.push_back(id);
    plan->points.push_back(s.pending.front().segment);
    plan->trace_ids.push_back(s.pending.front().trace_id);
    if (options_.queue_wait != nullptr) {
      options_.queue_wait->Add(now - s.pending.front().enqueued_ms);
    }
    if (options_.tracer != nullptr && s.pending.front().trace_id != 0) {
      options_.tracer->Record(s.pending.front().trace_id, "queue_wait",
                              options_.trace_where,
                              s.pending.front().enqueued_ms,
                              now - s.pending.front().enqueued_ms);
    }
    s.pending.pop_front();
    --queued_points_;
  }
  if (plan->admitted.empty()) return;

  // Partition: GRU transitions advance together through one StepNllRows
  // call; first points have no transition yet; kScalingOnly points batch
  // through the RP-VAE by slot. Transition state rows are copied out of the
  // shared matrix — it may be reallocated or compacted while we compute.
  for (size_t a = 0; a < plan->admitted.size(); ++a) {
    Session& s = sessions_.at(plan->admitted[a]);
    if (variant_ == core::ScoreVariant::kScalingOnly) {
      size_t dense = 0;
      while (dense < plan->slot_of.size() &&
             plan->slot_of[dense] != s.rp_slot) {
        ++dense;
      }
      if (dense == plan->slot_of.size()) {
        plan->slot_of.push_back(s.rp_slot);
        plan->slot_segments.emplace_back();
        plan->slot_owners.emplace_back();
      }
      plan->slot_segments[dense].push_back(plan->points[a]);
      plan->slot_owners[dense].push_back(a);
    } else if (s.has_last) {
      plan->tr_current.push_back(s.last);
      plan->tr_next.push_back(plan->points[a]);
      plan->tr_admitted.push_back(a);
      plan->tr_states.insert(plan->tr_states.end(),
                             states_.begin() + s.row * hd,
                             states_.begin() + (s.row + 1) * hd);
    }
  }
  plan->tables = tables_;
}

void StreamingBatcher::ComputeUnlocked(BatchPlan* plan) const {
  plan->tr_nll.assign(plan->tr_current.size(), 0.0);
  if (!plan->tr_current.empty()) {
    // The snapshot is dense: transition k advances row k of tr_states.
    std::vector<int64_t> rows(plan->tr_current.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      rows[k] = static_cast<int64_t>(k);
    }
    tg_->StepNllRows(*plan->tables, plan->tr_current, plan->tr_next, rows,
                     plan->tr_states.data(), plan->tr_nll.data());
  }
  plan->slot_nll.resize(plan->slot_of.size());
  for (size_t dense = 0; dense < plan->slot_of.size(); ++dense) {
    plan->slot_nll[dense] =
        rp_->SegmentNllBatch(plan->slot_segments[dense],
                             plan->slot_of[dense]);
  }
}

int64_t StreamingBatcher::CommitLocked(const BatchPlan& plan) {
  const int64_t hd = tg_->config().hidden_dim;
  // Write the advanced state rows back through a fresh row lookup — End()s
  // of other sessions may have compacted the matrix (relocating rows) while
  // we computed. In-flight rows themselves cannot have been released.
  for (size_t k = 0; k < plan.tr_admitted.size(); ++k) {
    Session& s = sessions_.at(plan.admitted[plan.tr_admitted[k]]);
    s.nll += plan.tr_nll[k];
    CAUSALTAD_CHECK_GE(s.row, 0);
    std::copy(plan.tr_states.begin() + static_cast<int64_t>(k) * hd,
              plan.tr_states.begin() + static_cast<int64_t>(k + 1) * hd,
              states_.begin() + s.row * hd);
  }
  for (size_t dense = 0; dense < plan.slot_of.size(); ++dense) {
    const std::vector<double>& nll = plan.slot_nll[dense];
    for (size_t k = 0; k < nll.size(); ++k) {
      sessions_.at(plan.admitted[plan.slot_owners[dense][k]]).nll += nll[k];
    }
  }

  // Emit scores, re-queue sessions with more points, release ended rows.
  const core::ScalingTable& table = model_->scaling_table();
  for (size_t a = 0; a < plan.admitted.size(); ++a) {
    const SessionId id = plan.admitted[a];
    Session& s = sessions_.at(id);
    s.in_flight = false;
    if (variant_ == core::ScoreVariant::kFull) {
      s.scaling += table.log_scaling(plan.points[a], s.table_slot);
    }
    s.last = plan.points[a];
    s.has_last = true;
    if (options_.tracer != nullptr && plan.trace_ids[a] != 0) {
      options_.tracer->Record(plan.trace_ids[a], "compute",
                              options_.trace_where, plan.compute_start_ms,
                              plan.compute_dur_ms);
    }
    if (s.emit_skip > 0) {
      // Prefix replay: the consumer already holds this score — the state
      // advance above is the whole point; queueing it would duplicate.
      --s.emit_skip;
    } else {
      s.scores.push_back(s.nll - lambda_ * s.scaling);
      if (options_.tracer != nullptr && plan.trace_ids[a] != 0) {
        options_.tracer->Record(plan.trace_ids[a], "emit",
                                options_.trace_where, Now(), 0.0);
      }
    }
    if (!s.pending.empty()) {
      // A Push that landed while we computed may have re-queued the session
      // already (it saw in_ready false); only queue it once.
      if (!s.in_ready) {
        s.in_ready = true;
        // Carry the oldest remaining point's original enqueue time, not the
        // re-queue time: a k-point burst must drain within ~max_delay_ms of
        // each point's arrival, not wait k·max_delay_ms for its tail.
        ReadyPushLocked(id, s.pending.front().enqueued_ms);
      }
    } else if (s.ended) {
      ReleaseRowLocked(&s);
      // End() during our compute could not forget the session (in flight);
      // mirror its cleanup now that the score is committed.
      MaybeForgetLocked(id);
    }
  }
  steps_fired_ += 1;
  points_scored_ += static_cast<int64_t>(plan.admitted.size());
  return static_cast<int64_t>(plan.admitted.size());
}

int64_t StreamingBatcher::active_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_ - static_cast<int64_t>(free_rows_.size());
}

int64_t StreamingBatcher::capacity_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

int64_t StreamingBatcher::queued_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_points_;
}

int64_t StreamingBatcher::tracked_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

StreamingBatcher::Counters StreamingBatcher::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {steps_fired_, points_scored_};
}

}  // namespace serve
}  // namespace causaltad
