#ifndef CAUSALTAD_SERVE_SESSION_BACKEND_H_
#define CAUSALTAD_SERVE_SESSION_BACKEND_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/causal_tad.h"
#include "roadnet/road_network.h"
#include "serve/streaming.h"

namespace causaltad {
namespace serve {

/// The session calls a wire front end (net::Server) makes into whatever
/// hosts its sessions. StreamingService implements it for sessions scored in
/// this process; net::Router implements it over a fleet of remote backend
/// servers, so one front end serves the protocol for both tiers.
class SessionBackend {
 public:
  SessionBackend() = default;
  SessionBackend(const SessionBackend&) = delete;
  SessionBackend& operator=(const SessionBackend&) = delete;
  virtual ~SessionBackend() = default;

  virtual SessionId BeginSession(roadnet::SegmentId source,
                                 roadnet::SegmentId destination,
                                 int time_slot) = 0;
  /// Rebuild of a resumed session from its replayed prefix: the first
  /// `emit_skip` scores advance the session but are never returned by Poll.
  virtual SessionId BeginSessionAt(roadnet::SegmentId source,
                                   roadnet::SegmentId destination,
                                   int time_slot, int64_t emit_skip) = 0;
  /// Only kAccepted takes the point; kShutdown is terminal for the session.
  virtual PushStatus Push(SessionId id, roadnet::SegmentId segment,
                          uint64_t trace_id) = 0;
  virtual void End(SessionId id) = 0;
  /// Scores emitted since the last Poll, feed order. An ended session keeps
  /// answering until its last score has surfaced.
  virtual std::vector<double> Poll(SessionId id) = 0;
  /// True once the backend can deliver nothing more for `id`: the session
  /// was never placed, its remote half is gone, or the backend no longer
  /// holds it. The front end then Ends it and stops waiting on its scores;
  /// a live client is told, so it can rebuild the session by Resume.
  virtual bool Lost(SessionId id) {
    (void)id;
    return false;
  }
  /// Whether wire Admin frames (stage/commit) apply to this backend. False
  /// for a backend whose models are administered elsewhere: the front end
  /// answers every Admin frame with an error ack.
  virtual bool TakesAdmin() const { return true; }
  /// Directs future sessions to `model` (the Admin commit path); false when
  /// the backend cannot.
  virtual bool SwapModel(const core::CausalTad* model) = 0;

  /// Housekeeping, run once per turn of the front end's event loop. Returns
  /// the longest the loop may wait before the next turn, in ms.
  virtual double Tick() { return std::numeric_limits<double>::infinity(); }
  /// A backend with a metrics view of its own (a fleet) writes the answer to
  /// a Stats scrape and returns true; false leaves the answer to the front
  /// end's registry.
  virtual bool Exposition(std::string* text) {
    (void)text;
    return false;
  }
};

}  // namespace serve
}  // namespace causaltad

#endif  // CAUSALTAD_SERVE_SESSION_BACKEND_H_
