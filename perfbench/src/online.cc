// The open-loop online workloads: one generator thread drives one
// net::Client into either a Server over a 1-shard pumped StreamingService
// (direct) or a Router in front of two such backends (fleet).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"

namespace perfbench {

using causaltad::traj::Trip;

namespace {

/// Fixed traffic shape. Each trip pushes one road segment every kGapS; the
/// ladder steps the offered point rate up, and kNominalRung (5k points/s)
/// is the rate the latency metrics are read at. kLimitMs is the p99 limit
/// a rung must meet to count as sustained.
constexpr double kGapS = 0.05;
constexpr double kLimitMs = 25.0;
/// Head of each rung left out of its statistics while the trip population
/// turns over (at most 30% of a short rung).
constexpr double kRampS = 0.3;
constexpr double kDrainTimeoutS = 20.0;  // after the last rung ends
/// Bound on one blocking client call: a lost reply fails the run within
/// its time limit instead of stalling it.
constexpr double kCallTimeoutMs = 10000.0;
constexpr size_t kP99Block = 1000;       // points per p99 block
struct Rung {
  double pps;
  double share;  // of the online seconds
};
constexpr Rung kLadder[] = {
    {2500.0, 0.15}, {5000.0, 0.40}, {10000.0, 0.225}, {20000.0, 0.225}};
constexpr int kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr int kNominalRung = 1;
/// Traced runs sample every kTracePeriod-th push.
constexpr int64_t kTracePeriod = 4;

causaltad::serve::ServiceOptions BenchServiceOptions(
    causaltad::obs::Registry* registry, causaltad::obs::Tracer* tracer) {
  causaltad::serve::ServiceOptions options;
  options.num_shards = 1;
  options.pump = true;
  options.max_session_pending = 8;
  options.max_shard_queued = 1 << 14;
  options.batcher.max_batch_rows = 64;
  options.batcher.max_delay_ms = 0.1;
  options.registry = registry;
  options.tracer = tracer;
  return options;
}

/// One backend: a pumped service behind a wire server, with its own
/// metrics registry so per-instance counters stay separate.
struct Backend {
  causaltad::obs::Registry registry;
  std::unique_ptr<causaltad::serve::StreamingService> service;
  std::unique_ptr<causaltad::net::Server> server;
};

/// The serving stack under test and the downstream client connection.
class Stack {
 public:
  Stack(const Setup& setup, bool fleet, causaltad::obs::Tracer* tracer) {
    backends_.resize(fleet ? 2 : 1);
    for (auto& b : backends_) {
      b = std::make_unique<Backend>();
      b->service = std::make_unique<causaltad::serve::StreamingService>(
          setup.model, BenchServiceOptions(&b->registry, tracer));
      causaltad::net::ServerOptions server_options;
      server_options.network = &setup.data.city.network;
      server_options.registry = &b->registry;
      server_options.tracer = tracer;
      b->server = std::make_unique<causaltad::net::Server>(b->service.get(),
                                                           server_options);
      ok_ = ok_ && b->server->Start().ok();
    }
    int downstream = -1;
    if (fleet) {
      std::vector<causaltad::net::RouterBackend> legs(backends_.size());
      for (size_t i = 0; i < backends_.size(); ++i) {
        causaltad::net::Server* server = backends_[i]->server.get();
        legs[i].dialer = [server] { return server->AddLoopbackConnection(); };
      }
      causaltad::net::RouterOptions router_options;
      router_options.upstream.max_inflight = 1 << 14;
      router_options.upstream.timeout_ms = kCallTimeoutMs;
      router_options.registry = &router_registry_;
      router_options.tracer = tracer;
      router_ = std::make_unique<causaltad::net::Router>(std::move(legs),
                                                         router_options);
      ok_ = ok_ && router_->Start().ok();
      if (ok_) downstream = router_->AddLoopbackConnection();
    } else if (ok_) {
      downstream = backends_[0]->server->AddLoopbackConnection();
    }
    if (!ok_ || downstream < 0) {
      ok_ = false;
      return;
    }
    causaltad::net::ClientOptions client_options;
    client_options.max_inflight = 1 << 14;
    client_options.timeout_ms = kCallTimeoutMs;
    client_options.registry = &client_registry_;
    client_options.tracer = tracer;
    client_options.trace_sample_period = tracer != nullptr ? kTracePeriod : 0;
    client_ = causaltad::net::Client::FromFd(downstream, client_options);
    ok_ = client_->Hello().ok();
  }

  ~Stack() {
    client_.reset();
    if (router_ != nullptr) router_->Stop();
    for (auto& b : backends_) {
      b->server->Stop();
      b->service->Shutdown();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool ok() const { return ok_; }
  causaltad::net::Client& client() { return *client_; }
  const std::vector<std::unique_ptr<Backend>>& backends() const {
    return backends_;
  }
  const causaltad::net::Router* router() const { return router_.get(); }

 private:
  bool ok_ = true;
  std::vector<std::unique_ptr<Backend>> backends_;
  causaltad::obs::Registry router_registry_;
  causaltad::obs::Registry client_registry_;
  std::unique_ptr<causaltad::net::Router> router_;
  std::unique_ptr<causaltad::net::Client> client_;
};

struct Arrival {
  double at_s;
  int32_t trip;
};

/// Seeded Poisson trip arrivals for each rung in [start, end) of its
/// window; trips are drawn uniformly from the test corpus.
std::vector<Arrival> Arrivals(const Setup& setup, uint64_t seed,
                              const std::vector<double>& rung_start,
                              const std::vector<double>& rung_end,
                              const std::vector<int>& rungs) {
  const double mean_points = static_cast<double>(setup.test_points) /
                             static_cast<double>(setup.test.size());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> pick(
      0, static_cast<int32_t>(setup.test.size()) - 1);
  std::vector<Arrival> out;
  for (size_t i = 0; i < rungs.size(); ++i) {
    std::exponential_distribution<double> gap(kLadder[rungs[i]].pps /
                                              mean_points);
    for (double t = rung_start[i] + gap(rng); t < rung_end[i]; t += gap(rng)) {
      out.push_back({t, pick(rng)});
    }
  }
  return out;
}

/// Per-point outcome: when it was due, pushed and observed scored.
struct PointRecord {
  double due_s = 0.0;
  double pushed_s = -1.0;
  double scored_s = -1.0;  // < 0: never scored
};

struct Live {
  int32_t trip = 0;
  uint64_t id = 0;
  size_t first_record = 0;  // index of point 0 in the record table
  int32_t pushed = 0;
  int32_t scored = 0;
  bool last_pushed = false;  // route done, or cut at the leg's end
  bool failed = false;
};

/// Span statistics over one traced dump: duration and self time (duration
/// minus the part covered by other spans of the same trace nested inside)
/// per stage.
void AddSpanMetrics(const std::string& dump, Result& result) {
  struct Parsed {
    std::string stage;
    double start = 0.0, dur = 0.0;
  };
  std::map<unsigned long long, std::vector<Parsed>> traces;
  // Tracer::DumpJson writes one span object per line.
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    unsigned long long id = 0;
    char stage[64] = {}, where[64] = {};
    double start = 0.0, dur = 0.0;
    if (std::sscanf(line.c_str(),
                    " {\"trace_id\": %llu, \"stage\": \"%63[^\"]\", \"where\": "
                    "\"%63[^\"]\", \"start_ms\": %lf, \"duration_ms\": %lf",
                    &id, stage, where, &start, &dur) == 5) {
      traces[id].push_back({stage, start, dur});
    }
  }
  std::map<std::string, std::vector<double>> dur_ms, self_ms;
  for (const auto& [id, spans] : traces) {
    for (const Parsed& s : spans) {
      const double end = s.start + s.dur;
      std::vector<std::pair<double, double>> inner;
      for (const Parsed& c : spans) {
        if (&c == &s || c.start < s.start || c.start + c.dur > end) continue;
        if (c.start == s.start && c.dur == s.dur && &c > &s) continue;
        inner.emplace_back(c.start, c.start + c.dur);
      }
      std::sort(inner.begin(), inner.end());
      double covered = 0.0, reach = s.start;
      for (const auto& [a, b] : inner) {
        if (b > reach) {
          covered += b - std::max(a, reach);
          reach = b;
        }
      }
      dur_ms[s.stage].push_back(s.dur);
      self_ms[s.stage].push_back(std::max(0.0, s.dur - covered));
    }
  }
  for (const char* stage : {"client_push_rtt", "router_leg", "server_dispatch",
                            "queue_wait", "compute", "emit"}) {
    const std::string base = std::string("span.") + stage;
    result.Set(base + ".p50_ms", Quantile(dur_ms[stage], 0.5), "ms");
    result.Set(base + ".p99_ms", Quantile(dur_ms[stage], 0.99), "ms");
    result.Set(base + ".self_p50_ms", Quantile(self_ms[stage], 0.5), "ms");
    result.Set(base + ".count", static_cast<double>(dur_ms[stage].size()),
               "count");
  }
}

}  // namespace

/// One pass of open-loop traffic over `rungs` (ladder indices), each
/// lasting `rung_seconds[i]`, through a fresh stack.
struct LegOutcome {
  Result result;
  std::vector<RungData> rungs;  // parallel to the leg's `rungs`
  double cpu_s = 0.0;
  int64_t scores = 0;
  double heap_kb_per_session = 0.0;
  std::vector<double> push_us, poll_us;
};

namespace {

LegOutcome RunLeg(const Setup& setup, bool fleet, uint64_t seed,
                  const std::vector<int>& rungs,
                  const std::vector<double>& rung_seconds, bool traced) {
  LegOutcome out;
  Result& result = out.result;
  std::vector<double> rung_start, rung_end, measured_from;
  double t = 0.0;
  for (double s : rung_seconds) {
    rung_start.push_back(t);
    measured_from.push_back(t + std::min(kRampS, 0.3 * s));
    t += s;
    rung_end.push_back(t);
  }
  // Arrivals stop at leg_end_s and so do pushes: trips still under way are
  // ended after their last pushed point, so a leg drains in milliseconds.
  const double leg_end_s = t;
  const double drain_deadline_s = t + kDrainTimeoutS;
  const std::vector<Arrival> arrivals =
      Arrivals(setup, seed, rung_start, rung_end, rungs);
  size_t total_points = 0;
  for (const Arrival& a : arrivals) {
    total_points += setup.test[a.trip].route.size();
  }

  // Spans are kept in memory (the ring is allocated up front) and read
  // once the leg has ended.
  std::unique_ptr<causaltad::obs::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<causaltad::obs::Tracer>(
        8 * (total_points / kTracePeriod) + 1024);
  }
  out.rungs.resize(rungs.size());  // empty rungs if the stack never starts
  Stack stack(setup, fleet, tracer.get());
  if (!stack.ok()) {
    result.attempted = 1;
    result.Fail(1, "serving stack failed to start");
    return out;
  }
  causaltad::net::Client& client = stack.client();
  auto rung_of = [&](double due) {
    for (size_t i = 0; i < rungs.size(); ++i) {
      if (due >= measured_from[i] && due < rung_end[i]) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  std::vector<PointRecord> records;
  std::vector<Live> live;        // slots
  std::vector<size_t> free_slots;
  std::vector<size_t> active;    // slots with a live session
  using Due = std::pair<double, size_t>;  // next push due, slot
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_heap;
  std::vector<std::vector<double>> late_ms(rungs.size());
  // Everything the generator records is allocated before the heap
  // baseline, so heap growth during the leg is the serving stack's.
  records.reserve(total_points);
  out.push_us.reserve(total_points);
  out.poll_us.reserve(8 * total_points);
  for (auto& v : late_ms) v.reserve(total_points);
  active.reserve(arrivals.size());
  live.reserve(arrivals.size());

  const double heap_base_kb = HeapInUseKb();
  double heap_per_session = 0.0;
  size_t most_live = 0;
  double next_heap_sample = 0.0;

  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Failed points are counted from the record table at the end; this
  // only names the first failure of each session.
  auto fail_session = [&](Live& s, const std::string& why) {
    if (!s.failed) result.Fail(0, why);
    s.failed = true;
  };

  size_t next_arrival = 0;
  bool fatal = false;
  while (!fatal) {
    double now = now_s();
    // Trips that have arrived open a session; point 0 is due at arrival.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].at_s <= now) {
      const Arrival& a = arrivals[next_arrival++];
      const Trip& trip = setup.test[a.trip];
      size_t slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        slot = live.size();
        live.emplace_back();
      }
      Live& s = live[slot];
      s = Live{};
      s.trip = a.trip;
      s.first_record = records.size();
      for (int64_t k = 0; k < trip.route.size(); ++k) {
        records.push_back({a.at_s + kGapS * static_cast<double>(k)});
      }
      s.id = client.Begin(trip.route.segments.front(),
                          trip.route.segments.back(), trip.time_slot);
      active.push_back(slot);
      due_heap.push({a.at_s, slot});
    }
    // Every push that is due goes out now, oldest first.
    while (!due_heap.empty() && due_heap.top().first <= now) {
      const size_t slot = due_heap.top().second;
      due_heap.pop();
      Live& s = live[slot];
      const Trip& trip = setup.test[s.trip];
      PointRecord& rec = records[s.first_record + s.pushed];
      const double t_push = now_s();
      const auto status = client.Push(s.id, trip.route.segments[s.pushed]);
      const double t_done = now_s();
      out.push_us.push_back((t_done - t_push) * 1e6);
      if (!status.ok()) {
        result.Fail(1, "push failed: " + status.ToString());
        fatal = true;
        break;
      }
      rec.pushed_s = t_push;
      const int r = rung_of(rec.due_s);
      if (r >= 0) late_ms[r].push_back((t_push - rec.due_s) * 1e3);
      if (++s.pushed < trip.route.size() && rec.due_s + kGapS < leg_end_s) {
        due_heap.push({rec.due_s + kGapS, slot});
      } else {
        s.last_pushed = true;
      }
      now = t_done;
    }
    if (fatal) break;
    // Poll only sessions with unscored points.
    bool got_scores = false;
    bool waiting = false;
    for (size_t i = 0; i < active.size();) {
      const size_t slot = active[i];
      Live& s = live[slot];
      if (s.pushed > s.scored) {
        const double t_poll = now_s();
        auto polled = client.Poll(s.id);
        const double t_seen = now_s();
        out.poll_us.push_back((t_seen - t_poll) * 1e6);
        if (!polled.ok()) {
          result.Fail(0, "poll failed: " + polled.status().ToString());
          fatal = true;
          break;
        }
        for (const double score : *polled) {
          if (s.scored >= s.pushed) {
            result.Fail(1, "more scores than pushed points (duplicate)");
            break;
          }
          const int32_t k = s.scored++;
          records[s.first_record + k].scored_s = t_seen;
          if (!WithinParity(score, setup.reference[s.trip][k])) {
            records[s.first_record + k].scored_s = -1.0;
            fail_session(s, "wire score outside parity bound");
          }
          got_scores = true;
        }
        if (s.pushed > s.scored) waiting = true;
      }
      if (s.last_pushed && s.scored == s.pushed) {
        auto rest = client.Finish(s.id);
        if (!rest.ok() || !rest->empty()) {
          result.Fail(1, "finish failed or returned extra scores");
        }
        free_slots.push_back(slot);
        active[i] = active.back();
        active.pop_back();
        continue;
      }
      ++i;
    }
    if (fatal) break;
    now = now_s();
    if (active.size() > most_live && now >= next_heap_sample) {
      most_live = active.size();
      heap_per_session =
          (HeapInUseKb() - heap_base_kb) / static_cast<double>(most_live);
      next_heap_sample = now + 0.2;
    }
    if (next_arrival == arrivals.size() && active.empty()) break;
    if (now > drain_deadline_s) {
      result.Fail(0, "scores still undelivered at the drain deadline");
      break;
    }
    double next_due = 1e30;
    if (!due_heap.empty()) next_due = due_heap.top().first;
    if (next_arrival < arrivals.size()) {
      next_due = std::min(next_due, arrivals[next_arrival].at_s);
    }
    // Sleep to the next due event; while scores are outstanding and the
    // last sweep found none, back off 50 us between poll sweeps.
    double wake = next_due;
    if (waiting) wake = got_scores ? now : std::min(next_due, now + 50e-6);
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wake - now));
    }
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  // Every pushed point must have been scored (within parity); whatever is
  // still open after a fatal error or the drain deadline is not.
  for (const PointRecord& rec : records) {
    if (rec.pushed_s < 0.0) continue;
    ++result.attempted;
    if (rec.scored_s < 0.0) ++result.failed;
  }
  out.scores = 0;
  for (const PointRecord& rec : records) out.scores += rec.scored_s >= 0.0;
  out.cpu_s = cpu_s;
  out.heap_kb_per_session = heap_per_session;

  for (size_t r = 0; r < rungs.size(); ++r) {
    const double start = measured_from[r], end = rung_end[r];
    RungData& data = out.rungs[r];
    data.measured_s = end - start;
    data.late_ms = std::move(late_ms[r]);
    int64_t backlog = 0;
    std::vector<std::pair<double, double>> due_lat;  // (due s, latency ms)
    for (const PointRecord& rec : records) {
      if (rec.due_s > end) continue;
      if (rec.scored_s < 0.0 || rec.scored_s > end) ++backlog;
      if (rec.due_s < start) continue;
      if (rec.scored_s < 0.0) {
        ++data.failed;
      } else {
        due_lat.emplace_back(rec.due_s, (rec.scored_s - rec.due_s) * 1e3);
      }
    }
    data.backlog_ends.push_back(backlog);
    std::sort(due_lat.begin(), due_lat.end());
    std::vector<double> block;
    for (const auto& [due, ms] : due_lat) {
      data.lat_ms.push_back(ms);
      block.push_back(ms);
      if (block.size() == kP99Block) {
        data.block_p99_ms.push_back(Quantile(block, 0.99));
        block.clear();
      }
    }
  }

  if (traced) {
    // Layer counters from each tier's stats() snapshot. Two backends are
    // folded: counts add, p50/occupancy are point-weighted, p99 the worst.
    double scored = 0.0, steps = 0.0, occ = 0.0, qw50 = 0.0, qw99 = 0.0;
    double rej_session = 0.0, rej_shard = 0.0, dispatch99 = 0.0,
           server_rejects = 0.0;
    for (const auto& b : stack.backends()) {
      const causaltad::serve::ServiceStats ss = b->service->stats();
      const double w = static_cast<double>(ss.points_scored);
      scored += w;
      steps += static_cast<double>(ss.steps);
      occ += w * ss.step_occupancy;
      qw50 += w * ss.queue_wait_p50_ms;
      qw99 = std::max(qw99, ss.queue_wait_p99_ms);
      rej_session += static_cast<double>(ss.rejected_session_full);
      rej_shard += static_cast<double>(ss.rejected_shard_full);
      const causaltad::net::ServerStats vs = b->server->stats();
      dispatch99 = std::max(dispatch99, vs.dispatch_p99_ms);
      server_rejects += static_cast<double>(
          vs.rejected_session_full + vs.rejected_shard_full +
          vs.rejected_quota + vs.rejected_out_of_order + vs.rejected_shutdown);
    }
    const double w = std::max(scored, 1.0);
    result.Set("serve.queue_wait_p50_ms", qw50 / w, "ms");
    result.Set("serve.queue_wait_p99_ms", qw99, "ms");
    result.Set("serve.step_occupancy", occ / w, "ratio");
    result.Set("serve.points_per_step", scored / std::max(steps, 1.0),
               "points");
    result.Set("serve.rejected_session_full", rej_session, "count");
    result.Set("serve.rejected_shard_full", rej_shard, "count");
    result.Set("net.server.dispatch_p99_ms", dispatch99, "ms");
    result.Set("net.server.rejects", server_rejects, "count");
    const causaltad::net::ClientStats& cs = client.stats();
    const double scores = static_cast<double>(std::max<int64_t>(1, out.scores));
    result.Set("net.client.push_us.p50", Quantile(out.push_us, 0.5), "us");
    result.Set("net.client.push_us.p99", Quantile(out.push_us, 0.99), "us");
    result.Set("net.client.poll_us.p50", Quantile(out.poll_us, 0.5), "us");
    result.Set("net.client.poll_us.p99", Quantile(out.poll_us, 0.99), "us");
    result.Set("net.client.polls_per_score",
               static_cast<double>(cs.polls_sent) / scores, "ratio");
    result.Set("net.client.bytes_per_point",
               static_cast<double>(cs.bytes_sent + cs.bytes_received) / scores,
               "bytes");
    result.Set("net.client.retransmits", static_cast<double>(cs.retransmits),
               "count");
    causaltad::net::RouterStats rs;
    if (stack.router() != nullptr) rs = stack.router()->stats();
    result.Set("net.router.scores_forwarded",
               static_cast<double>(rs.scores_forwarded), "count");
    result.Set("net.router.health_probes",
               static_cast<double>(rs.health_probes), "count");
    AddSpanMetrics(tracer->DumpJson(), result);
  }
  return out;
}

}  // namespace

OnlineBench::OnlineBench(const Setup& setup, bool fleet, uint64_t seed)
    : setup_(setup), fleet_(fleet), seed_(seed) {}

LegOutcome OnlineBench::Leg(const std::vector<int>& rungs,
                            const std::vector<double>& seconds, bool traced) {
  // Every leg draws its own arrivals from the run seed.
  LegOutcome leg = RunLeg(setup_, fleet_, seed_ * 1000003 + legs_++, rungs,
                          seconds, traced);
  checked_.Merge(leg.result);
  cpu_s_ += leg.cpu_s;
  scores_ += leg.scores;
  for (size_t i = 0; i < rungs.size(); ++i) {
    pooled_[rungs[i]].Pool(leg.rungs[i]);
  }
  return leg;
}

void OnlineBench::LadderLeg(double seconds) {
  std::vector<int> rungs;
  std::vector<double> rung_seconds;
  for (int r = 0; r < kRungs; ++r) {
    rungs.push_back(r);
    rung_seconds.push_back(seconds * kLadder[r].share);
  }
  (void)Leg(rungs, rung_seconds, false);
}

Result OnlineBench::Finish() {
  Result result = checked_;
  double sustained = 0.0;
  for (int r = 0; r < kRungs; ++r) {
    const RungData& d = pooled_[r];
    const bool meets = d.p99_ms() <= kLimitMs && d.failed == 0 &&
                       d.backlog_end() <= kLadder[r].pps * kLimitMs * 1e-3;
    std::printf("rung %6.0f pts/s: p50 %.3f  p90 %.3f  p99 %.3f ms "
                "(unblocked p99 %.3f ms, %zu samples)  late p99 %.3f ms  "
                "backlog %.0f  %s\n",
                kLadder[r].pps, d.p50_ms(), Quantile(d.lat_ms, 0.9),
                d.p99_ms(), Quantile(d.lat_ms, 0.99), d.lat_ms.size(),
                Quantile(d.late_ms, 0.99), d.backlog_end(),
                meets ? "meets limit" : "misses limit");
    if (meets) sustained = d.delivered_pps();
  }
  // Printed, not gated: the fleet's knee sits near the 20k rung, so the
  // rung it passes flips with the host's speed (see README, Steadiness).
  std::printf("sustained_pps: %.1f\n", sustained);
  result.Set("cpu_us_per_point",
             1e6 * cpu_s_ / static_cast<double>(std::max<int64_t>(1, scores_)),
             "us");
  return result;
}

Result OnlineBench::Traced(double seconds) {
  // The nominal rung twice on fresh stacks, untraced then traced, so the
  // tracing overhead is measured on the same kind of traffic.
  LegOutcome plain = Leg({kNominalRung}, {seconds / 2.0}, false);
  LegOutcome traced = Leg({kNominalRung}, {seconds / 2.0}, true);
  Result result = checked_;
  result.Merge(traced.result);
  auto cpu_per_point = [](const LegOutcome& leg) {
    return leg.cpu_s / static_cast<double>(std::max<int64_t>(1, leg.scores));
  };
  result.Set("trace.overhead_pct",
             100.0 * (cpu_per_point(traced) / cpu_per_point(plain) - 1.0), "%");
  result.Set("trace.overhead_lat_p50_pct",
             100.0 * (traced.rungs[0].p50_ms() / plain.rungs[0].p50_ms() - 1.0),
             "%");
  // Latency at the nominal rate, untraced. Reported here, with the layer
  // metrics, because its run-to-run spread on a shared host is too wide
  // for a regression bound (see README, Steadiness).
  result.Set("lat_p50_ms", plain.rungs[0].p50_ms(), "ms");
  result.Set("lat_p99_ms", plain.rungs[0].p99_ms(), "ms");
  const RungData& t = traced.rungs[0];
  result.Set("gen.late_p99_ms", Quantile(t.late_ms, 0.99), "ms");
  result.Set("gen.late_max_ms",
             t.late_ms.empty()
                 ? 0.0
                 : *std::max_element(t.late_ms.begin(), t.late_ms.end()),
             "ms");
  result.Set("gen.backlog_end", t.backlog_end(), "points");
  // Heap growth per live session, from the untraced leg (span strings would
  // otherwise count as session state).
  result.Set("proc.rss_per_session_kb", plain.heap_kb_per_session, "KiB");
  return result;
}

}  // namespace perfbench
