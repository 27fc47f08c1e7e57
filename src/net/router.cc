#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/socket_io.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace causaltad {
namespace net {
namespace {

// splitmix64 finalizer — same mix the client/server use for resume keys and
// shard spread, reused here for the vnode ring so placement quality does
// not depend on the quality of the inputs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Router::Leg::~Leg() {
  if (router != nullptr && current >= 0) {
    router->legs_on_[current].fetch_sub(1, std::memory_order_acq_rel);
  }
}

Router::Router(std::vector<RouterBackend> backends, RouterOptions options)
    : backends_(std::move(backends)), options_(std::move(options)) {
  CAUSALTAD_CHECK(!backends_.empty());
  const int n = num_backends();
  dead_ = std::make_unique<std::atomic<bool>[]>(n);
  draining_ = std::make_unique<std::atomic<bool>[]>(n);
  legs_on_ = std::make_unique<std::atomic<int64_t>[]>(n);
  for (int i = 0; i < n; ++i) {
    dead_[i].store(false, std::memory_order_relaxed);
    draining_[i].store(false, std::memory_order_relaxed);
    legs_on_[i].store(0, std::memory_order_relaxed);
  }
  probe_failures_consecutive_.assign(n, 0);
  registry_ = options_.registry != nullptr ? options_.registry
                                           : obs::Registry::Default();
  connections_accepted_.Bind(registry_, "router_connections_accepted_total");
  connections_active_.Bind(registry_, "router_connections_active");
  sessions_opened_.Bind(registry_, "router_sessions_opened_total");
  sessions_resumed_.Bind(registry_, "router_sessions_resumed_total");
  failovers_.Bind(registry_, "router_failovers_total");
  migrations_.Bind(registry_, "router_migrations_total");
  upstream_reconnects_.Bind(registry_, "router_upstream_reconnects_total");
  dup_scores_dropped_.Bind(registry_, "router_dup_scores_dropped_total");
  scores_forwarded_.Bind(registry_, "router_scores_forwarded_total");
  health_probes_.Bind(registry_, "router_health_probes_total");
  probe_failures_.Bind(registry_, "router_probe_failures_total");
  swaps_rolled_.Bind(registry_, "router_swaps_rolled_total");
  auth_failures_.Bind(registry_, "router_auth_failures_total");
  backends_dead_gauge_ = registry_->GetGauge("router_backends_dead");
  const int vnodes = std::max(1, options_.virtual_nodes);
  ring_.reserve(static_cast<size_t>(n) * vnodes);
  for (int i = 0; i < n; ++i) {
    for (int v = 0; v < vnodes; ++v) {
      ring_.emplace_back(
          Mix(Mix(static_cast<uint64_t>(i) + 1) ^
              (static_cast<uint64_t>(v) * 0x100000001b3ull)),
          i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  legs_.resize(static_cast<size_t>(n));
  ServerOptions server_options;
  server_options.listen_port = options_.listen_port;
  server_options.listen_host = options_.listen_host;
  server_options.tenant_tokens = options_.tenant_tokens;
  server_options.registry = &server_registry_;
  server_ = std::make_unique<Server>(static_cast<serve::SessionBackend*>(this),
                                     std::move(server_options));
}

Router::~Router() { Stop(); }

util::Status Router::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return util::Status::FailedPrecondition("already started");
  stop_.store(false, std::memory_order_release);
  CAUSALTAD_RETURN_IF_ERROR(server_->Start());
  started_ = true;
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthMain(); });
  }
  return util::Status::Ok();
}

void Router::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return;
    started_ = false;
  }
  // Set before the server stops: leg redials fail fast, and the sessions
  // the server ends on its way down are left to the backends' linger.
  stop_.store(true, std::memory_order_release);
  server_->Stop();
  if (health_thread_.joinable()) health_thread_.join();
  // The event loop has exited: close every upstream leg. The backends park
  // their resumable sessions until the linger expires.
  sessions_.clear();
  sessions_live_.store(0, std::memory_order_relaxed);
  legs_.assign(legs_.size(), nullptr);
}

// ---------------------------------------------------------------------------
// Health and placement

bool Router::Eligible(int backend) const {
  return !dead_[backend].load(std::memory_order_acquire) &&
         !draining_[backend].load(std::memory_order_acquire);
}

bool Router::BackendAlive(int backend) const {
  return backend >= 0 && backend < num_backends() &&
         !dead_[backend].load(std::memory_order_acquire);
}

bool Router::BackendDraining(int backend) const {
  return backend >= 0 && backend < num_backends() &&
         draining_[backend].load(std::memory_order_acquire);
}

void Router::MarkDead(int backend, bool dead) {
  dead_[backend].store(dead, std::memory_order_release);
  int64_t dead_count = 0;
  for (int i = 0; i < num_backends(); ++i) {
    if (dead_[i].load(std::memory_order_acquire)) ++dead_count;
  }
  backends_dead_gauge_->Set(dead_count);
}

int Router::PickBackend(uint64_t hash) const {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const std::pair<uint64_t, int>& e, uint64_t h) { return e.first < h; });
  for (size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (Eligible(it->second)) return it->second;
    ++it;
  }
  return -1;
}

int Router::DialBackendFd(int backend) {
  const RouterBackend& b = backends_[backend];
  if (b.dialer) return b.dialer();
  if (b.port < 0) return -1;
  return DialTcp(b.host, b.port, nullptr);
}

int Router::DialUpstream(Leg* leg) {
  if (stop_.load(std::memory_order_acquire)) return -1;
  const int n = num_backends();
  for (int k = 0; k < n; ++k) {
    const int cand = (leg->home + k) % n;
    if (!Eligible(cand)) continue;
    const int fd = DialBackendFd(cand);
    if (fd < 0) continue;  // unreachable before health noticed: next peer
    if (leg->current != cand) {
      if (cand != leg->home) {
        failovers_.Inc();
      }
      if (leg->current >= 0) {
        legs_on_[leg->current].fetch_sub(1, std::memory_order_acq_rel);
      }
      legs_on_[cand].fetch_add(1, std::memory_order_acq_rel);
      leg->current = cand;
    }
    return fd;
  }
  return -1;
}

std::shared_ptr<Router::Leg> Router::LegFor(int home) {
  std::shared_ptr<Leg>* slot = &legs_[static_cast<size_t>(home)];
  if (*slot != nullptr) {
    if ((*slot)->client->status().ok()) return *slot;
    RetireLeg(slot);
  }
  auto leg = std::make_shared<Leg>();
  Leg* raw = leg.get();
  raw->router = this;
  raw->home = home;
  raw->last_heartbeat_ms = NowMs();
  const int fd = DialUpstream(raw);
  if (fd < 0) return nullptr;
  ClientOptions copts = options_.upstream;
  copts.reconnect = true;
  copts.fault = options_.upstream_fault;
  copts.dialer = [this, raw] { return DialUpstream(raw); };
  // Unique per leg ever opened: a replacement leg's resume keys must never
  // match sessions a failed one left parked on a backend. Mixed twice: the
  // client derives resume keys from client_id ^ Mix(session + 1), so ids of
  // the form Mix(k) would collide across legs (Mix(1) ^ Mix(2) both ways).
  copts.client_id = Mix(Mix(++legs_opened_));
  raw->client = Client::FromFd(fd, std::move(copts));
  if (!raw->client->Hello().ok()) return nullptr;
  *slot = std::move(leg);
  return *slot;
}

void Router::RetireLeg(std::shared_ptr<Leg>* slot) {
  Leg* leg = slot->get();
  if (leg->current >= 0) {
    legs_on_[leg->current].fetch_sub(1, std::memory_order_acq_rel);
    leg->current = -1;
  }
  slot->reset();
}

void Router::FoldLegStats(Leg* leg) {
  const ClientStats& s = leg->client->stats();
  upstream_reconnects_.Inc(s.reconnects - leg->reconnects_folded);
  dup_scores_dropped_.Inc(s.dup_scores - leg->dups_folded);
  leg->reconnects_folded = s.reconnects;
  leg->dups_folded = s.dup_scores;
}

ClientOptions Router::AdminClientOptions(double timeout_ms) const {
  const bool own = !options_.admin_tenant.empty();
  ClientOptions admin;
  admin.tenant = own ? options_.admin_tenant : options_.upstream.tenant;
  admin.auth_token = own ? options_.admin_token : options_.upstream.auth_token;
  admin.reconnect = false;
  admin.timeout_ms = timeout_ms;
  return admin;
}

void Router::HealthMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    for (int i = 0; i < num_backends(); ++i) {
      if (stop_.load(std::memory_order_acquire)) return;
      ProbeBackend(i);
    }
    // Sleep in small slices so Stop() is prompt.
    double left = options_.health_interval_ms;
    while (left > 0 && !stop_.load(std::memory_order_acquire)) {
      const double slice = std::min(left, 10.0);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(slice));
      left -= slice;
    }
  }
}

void Router::ProbeBackend(int backend) {
  health_probes_.Inc();
  bool ok = false;
  const int fd = DialBackendFd(backend);
  if (fd >= 0) {
    auto probe =
        Client::FromFd(fd, AdminClientOptions(options_.health_timeout_ms));
    ok = probe->Hello().ok() && probe->Heartbeat().ok();
  }
  if (ok) {
    probe_failures_consecutive_[backend] = 0;
    MarkDead(backend, false);
  } else {
    probe_failures_.Inc();
    if (++probe_failures_consecutive_[backend] >=
        options_.health_failure_threshold) {
      MarkDead(backend, true);
    }
  }
}

// ---------------------------------------------------------------------------
// Drain and fleet-wide swap

util::Status Router::DrainBackend(int backend) {
  if (backend < 0 || backend >= num_backends()) {
    return util::Status::InvalidArgument("no such backend");
  }
  // Refuse a drain nothing could absorb: need one other eligible backend.
  bool have_peer = false;
  for (int i = 0; i < num_backends(); ++i) {
    if (i != backend && Eligible(i)) have_peer = true;
  }
  if (!have_peer) {
    return util::Status::FailedPrecondition(
        "no live peer to drain backend " + std::to_string(backend) + " onto");
  }
  draining_[backend].store(true, std::memory_order_release);
  const double deadline = NowMs() + options_.drain_timeout_ms;
  while (legs_on_[backend].load(std::memory_order_acquire) > 0) {
    if (NowMs() > deadline) {
      return util::Status::IoError(
          "drain of backend " + std::to_string(backend) + " timed out with " +
          std::to_string(legs_on_[backend].load()) + " legs attached");
    }
    if (stop_.load(std::memory_order_acquire)) {
      return util::Status::FailedPrecondition("router stopping");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return util::Status::Ok();
}

void Router::UndrainBackend(int backend) {
  if (backend < 0 || backend >= num_backends()) return;
  draining_[backend].store(false, std::memory_order_release);
}

util::Status Router::RollSwap(const std::string& tag) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  for (int i = 0; i < num_backends(); ++i) {
    if (dead_[i].load(std::memory_order_acquire)) continue;
    const int fd = DialBackendFd(i);
    if (fd < 0) {
      return util::Status::IoError("cannot reach backend " +
                                       std::to_string(i) + " for swap");
    }
    auto admin =
        Client::FromFd(fd, AdminClientOptions(options_.upstream.timeout_ms));
    CAUSALTAD_RETURN_IF_ERROR(admin->Hello());

    uint64_t result = 0;
    std::string message;
    // Stage blocks until the background load settles (deferred ack).
    CAUSALTAD_RETURN_IF_ERROR(admin->Admin("stage:" + tag, &result, &message));
    if (result != static_cast<uint64_t>(AdminStatus::kOk)) {
      return util::Status::Internal("stage failed on backend " +
                                    std::to_string(i) + ": " + message);
    }

    // Drain sessions onto peers before the flip; a single-backend fleet
    // commits live (sessions on the old generation finish on it anyway).
    bool drained = false;
    util::Status drain = DrainBackend(i);
    if (drain.ok()) {
      drained = true;
    } else if (drain.code() != util::StatusCode::kFailedPrecondition) {
      UndrainBackend(i);
      return drain;
    }

    util::Status commit = admin->Admin("commit", &result, &message);
    if (commit.ok() &&
        result == static_cast<uint64_t>(AdminStatus::kBusy)) {
      // The stage ack already reported ready, but tolerate a busy verdict
      // from an interleaved operator stage: one bounded retry.
      commit = admin->Admin("commit", &result, &message);
    }
    if (drained) UndrainBackend(i);
    CAUSALTAD_RETURN_IF_ERROR(commit);
    if (result != static_cast<uint64_t>(AdminStatus::kOk)) {
      return util::Status::Internal("commit failed on backend " +
                                    std::to_string(i) + ": " + message);
    }
    swaps_rolled_.Inc();
  }
  return util::Status::Ok();
}

namespace {

// Re-labels one backend's exposition for the fleet view: every series line
// gains backend="<i>" as its first label; the backend's own header comment
// is dropped (the fleet view carries one).
std::string InjectBackendLabel(const std::string& text, int backend) {
  const std::string label = "backend=\"" + std::to_string(backend) + "\"";
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t brace = line.find('{');
    const size_t space = line.find(' ');
    if (brace != std::string::npos &&
        (space == std::string::npos || brace < space)) {
      out += line.substr(0, brace + 1) + label + "," + line.substr(brace + 1);
    } else if (space != std::string::npos) {
      out += line.substr(0, space) + "{" + label + "}" + line.substr(space);
    } else {
      out += line;  // unrecognized line shape: pass through untouched
    }
    out += '\n';
  }
  return out;
}

}  // namespace

void Router::MirrorServerSeries() {
  const ServerStats server = server_->stats();
  std::lock_guard<std::mutex> lock(mirror_mu_);
  connections_accepted_.Inc(server.connections_accepted -
                            connections_accepted_.value());
  connections_active_.Add(server.connections_active -
                          connections_active_.value());
  sessions_resumed_.Inc(server.sessions_resumed +
                        server.sessions_resumed_fresh -
                        sessions_resumed_.value());
  auth_failures_.Inc(server.auth_failures - auth_failures_.value());
}

std::string Router::ScrapeFleet() {
  MirrorServerSeries();
  std::string out = "# causaltad_metrics v1\n";
  for (int i = 0; i < num_backends(); ++i) {
    const int fd = DialBackendFd(i);
    if (fd < 0) {
      out += "# backend " + std::to_string(i) + ": unreachable\n";
      continue;
    }
    auto scraper =
        Client::FromFd(fd, AdminClientOptions(options_.scrape_timeout_ms));
    std::string text;
    util::Status st = scraper->Hello();
    if (st.ok()) st = scraper->ScrapeStats(&text);
    if (!st.ok()) {
      out += "# backend " + std::to_string(i) +
             ": scrape failed: " + st.message() + "\n";
      continue;
    }
    out += InjectBackendLabel(text, i);
  }
  // The router's own series, unlabeled — router_* names are disjoint from
  // the backends' server_*/service_* names, so the fleet view stays flat.
  const std::string own = registry_->ExpositionText();
  const size_t first_nl = own.find('\n');
  out += first_nl == std::string::npos ? own : own.substr(first_nl + 1);
  return out;
}

// ---------------------------------------------------------------------------
// Fleet sessions (serve::SessionBackend, on the server's event loop)

serve::SessionId Router::OpenSession(roadnet::SegmentId source,
                                     roadnet::SegmentId destination,
                                     int time_slot, int64_t emit_skip) {
  const serve::SessionId id = next_session_++;
  FleetSession& s = sessions_[id];
  sessions_live_.fetch_add(1, std::memory_order_relaxed);
  s.drop_scores = emit_skip;
  const int home = PickBackend(Mix(static_cast<uint64_t>(id) + 0xa5a5ull));
  if (home >= 0) s.leg = LegFor(home);
  if (s.leg != nullptr) {
    s.up_id = s.leg->client->Begin(source, destination, time_slot);
  } else {
    s.lost = true;  // no backend answers: the server refuses the Begin
  }
  return id;
}

void Router::Forget(std::unordered_map<serve::SessionId,
                                       FleetSession>::iterator it) {
  sessions_.erase(it);
  sessions_live_.fetch_sub(1, std::memory_order_relaxed);
}

void Router::DropReplayed(FleetSession* s, std::vector<double>* scores) {
  const int64_t drop =
      std::min<int64_t>(s->drop_scores, static_cast<int64_t>(scores->size()));
  scores->erase(scores->begin(), scores->begin() + drop);
  s->drop_scores -= drop;
}

serve::SessionId Router::BeginSession(roadnet::SegmentId source,
                                      roadnet::SegmentId destination,
                                      int time_slot) {
  sessions_opened_.Inc();
  return OpenSession(source, destination, time_slot, 0);
}

// A resumed session the server could not re-adopt: a new upstream session
// on the ring replays the client's full prefix, and the first `emit_skip`
// scores it returns (the ones the client already holds) are dropped — no
// gaps, no duplicates, wherever the old upstream session ended up.
serve::SessionId Router::BeginSessionAt(roadnet::SegmentId source,
                                        roadnet::SegmentId destination,
                                        int time_slot, int64_t emit_skip) {
  return OpenSession(source, destination, time_slot, emit_skip);
}

serve::PushStatus Router::Push(serve::SessionId id,
                               roadnet::SegmentId segment,
                               uint64_t trace_id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.lost) {
    return serve::PushStatus::kShutdown;
  }
  FleetSession& s = it->second;
  // Blocking upstream push: window flow control and go-back-N live in the
  // leg client, so retryable rejects never surface downstream — they show
  // up as this call applying backpressure. A trace id rides along to the
  // backend; the router's leg span wraps the forward (including any
  // backpressure drain it absorbed).
  const bool traced = trace_id != 0 && options_.tracer != nullptr;
  const double trace_t0 = traced ? obs::TraceNowMs() : 0.0;
  const util::Status st = s.leg->client->Push(s.up_id, segment, trace_id);
  FoldLegStats(s.leg.get());
  if (!st.ok()) {
    // A session-level verdict on a healthy leg (the backend's service shut
    // it down) is final; anything else means the leg could not deliver,
    // and the server has the client rebuild the session.
    if (st.code() != util::StatusCode::kFailedPrecondition ||
        !s.leg->client->status().ok()) {
      s.lost = true;
    }
    return serve::PushStatus::kShutdown;
  }
  if (traced) {
    options_.tracer->Record(trace_id, "router_leg", options_.trace_where,
                            trace_t0, obs::TraceNowMs() - trace_t0);
  }
  return serve::PushStatus::kAccepted;
}

void Router::End(serve::SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.ended) return;
  FleetSession& s = it->second;
  s.ended = true;
  if (!s.lost && !stop_.load(std::memory_order_acquire)) {
    // Finish drains every in-flight point upstream and returns whatever
    // was not yet polled; downstream clients drain before sending End, so
    // the tail is normally empty, but a resume rebuild can leave one.
    auto tail = s.leg->client->Finish(s.up_id);
    FoldLegStats(s.leg.get());
    if (tail.ok()) {
      s.tail = std::move(*tail);
      DropReplayed(&s, &s.tail);
    } else {
      s.lost = true;
    }
  }
  // Nothing left to hand out: forget the session now, since the server
  // polls an ended session only while it is still owed scores.
  if (s.lost || s.tail.empty()) Forget(it);
}

std::vector<double> Router::Poll(serve::SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  FleetSession& s = it->second;
  std::vector<double> scores;
  if (s.ended) {
    scores.swap(s.tail);
    Forget(it);
  } else if (!s.lost && !stop_.load(std::memory_order_acquire)) {
    auto polled = s.leg->client->Poll(s.up_id);
    FoldLegStats(s.leg.get());
    if (polled.ok()) {
      scores = std::move(*polled);
      DropReplayed(&s, &scores);
    } else {
      s.lost = true;
    }
  }
  scores_forwarded_.Inc(static_cast<int64_t>(scores.size()));
  return scores;
}

// A session the router no longer holds has nothing left to deliver.
bool Router::Lost(serve::SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return true;
  const FleetSession& s = it->second;
  return s.lost || (!s.ended && !s.leg->client->status().ok());
}

// Model administration is a backend concern: RollSwap stages and commits
// over admin connections, so the server answers wire Admin frames with an
// error ack and never reaches SwapModel.
bool Router::TakesAdmin() const { return false; }
bool Router::SwapModel(const core::CausalTad* /*model*/) { return false; }

double Router::Tick() {
  const double now = NowMs();
  const double since = now - last_tick_ms_;
  if (since < options_.idle_tick_ms) return options_.idle_tick_ms - since;
  last_tick_ms_ = now;
  for (std::shared_ptr<Leg>& slot : legs_) {
    Leg* leg = slot.get();
    if (leg == nullptr) continue;
    if (!leg->client->status().ok()) {
      RetireLeg(&slot);
      continue;
    }
    if (leg->current >= 0 &&
        draining_[leg->current].load(std::memory_order_acquire)) {
      // Administrative migration: the dialer avoids draining backends, so
      // Migrate carries every session of this leg onto a live peer.
      migrations_.Inc();
      (void)leg->client->Migrate();  // failure latches into the leg status
      leg->last_heartbeat_ms = now;
    } else if (options_.upstream_heartbeat_ms > 0 &&
               now - leg->last_heartbeat_ms >= options_.upstream_heartbeat_ms) {
      leg->last_heartbeat_ms = now;
      (void)leg->client->Heartbeat();  // reconnects (or latches) on failure
    }
    FoldLegStats(leg);
  }
  MirrorServerSeries();
  return options_.idle_tick_ms;
}

bool Router::Exposition(std::string* text) {
  *text = ScrapeFleet();
  return true;
}

RouterStats Router::stats() const {
  const ServerStats server = server_->stats();
  RouterStats s;
  s.connections_accepted = server.connections_accepted;
  s.connections_active = server.connections_active;
  s.sessions_opened = sessions_opened_.value();
  s.sessions_resumed = server.sessions_resumed + server.sessions_resumed_fresh;
  s.failovers = failovers_.value();
  s.migrations = migrations_.value();
  s.upstream_reconnects = upstream_reconnects_.value();
  s.dup_scores_dropped = dup_scores_dropped_.value();
  s.scores_forwarded = scores_forwarded_.value();
  s.health_probes = health_probes_.value();
  s.probe_failures = probe_failures_.value();
  s.swaps_rolled = swaps_rolled_.value();
  s.auth_failures = server.auth_failures;
  s.sessions_live = sessions_live_.load(std::memory_order_relaxed);
  for (int i = 0; i < num_backends(); ++i) {
    if (dead_[i].load(std::memory_order_acquire)) ++s.backends_dead;
  }
  return s;
}

}  // namespace net
}  // namespace causaltad
