// Per-user session state for the audit service. A session tracks the user's
// accumulated disclosures as one WorldSet intersection — the paper's
// Section 3.3 composition rule (acquiring B1 then B2 equals acquiring
// B1 ∩ B2, Def. 3.9 / Prop. 3.10), so k streamed disclosures audit exactly
// like the offline per-user conjunction — and optionally drives an
// OnlineAuditSession whose strategy decides allow/deny before anything is
// disclosed at all (Section 7's online direction).
//
// The service's admission runs at most one request per user at a time, in
// admission order (intersection is commutative, but sequence numbers and the
// online strategy's agent model are order-sensitive), while distinct users
// proceed in parallel. Sessions are still mutated under their own mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/online.h"
#include "engine/incremental.h"
#include "worlds/world_set.h"

namespace epi {
namespace service {

class Session {
 public:
  /// A fresh session knows nothing: the accumulated set starts at the full
  /// universe {0,1}^records. `generation` ties the session to the scenario
  /// it was built for; the service recreates sessions whose generation does
  /// not match the scenario serving the request, so a WorldSet from one
  /// universe is never intersected into a session from another.
  Session(std::string user, unsigned records, std::uint64_t generation = 0);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& user() const { return user_; }

  /// The scenario generation this session was built for.
  std::uint64_t generation() const { return generation_; }

  /// B1 ∩ ... ∩ Bk over every disclosure absorbed so far (the universe when
  /// k = 0). Read under the session mutex when workers are running.
  const WorldSet& accumulated() const { return accumulated_; }

  /// Number of disclosures absorbed.
  std::uint64_t disclosures() const { return disclosures_; }

  /// Intersects one disclosed set into the accumulated knowledge and
  /// returns the 1-based sequence number of the disclosure. Skips the
  /// intersection — and leaves the incremental state clean — when the
  /// accumulated set is already a subset of `disclosed` (the intersection
  /// would be the identity); otherwise marks the incremental state dirty so
  /// the next cumulative decision re-evaluates.
  std::uint64_t absorb(const WorldSet& disclosed);

  /// Per-session delta-evaluation state for the cumulative decision (see
  /// engine/incremental.h). Mutated by absorb() and by
  /// DecisionEngine::decide_incremental, both under the session mutex.
  /// Dies with the session: reset_session()/reload() drop the whole Session
  /// object, and router replay rebuilds into a fresh one, so stale deltas
  /// can never survive an S that grows back.
  IncrementalContext& incremental() { return incremental_; }

  /// Attaches the allow/deny strategy driver (online mode only).
  void attach_online(std::unique_ptr<OnlineAuditSession> online);
  OnlineAuditSession* online() { return online_.get(); }

  /// Guards the session's state; the service holds this for the
  /// absorb-and-decide step of each request.
  std::mutex& mutex() { return mutex_; }

 private:
  std::string user_;
  std::uint64_t generation_;
  WorldSet accumulated_;
  IncrementalContext incremental_;
  std::uint64_t disclosures_ = 0;
  std::unique_ptr<OnlineAuditSession> online_;
  std::mutex mutex_;
};

}  // namespace service
}  // namespace epi
