// The query log that offline auditing runs over: who asked what, and which
// answer they received. A disclosure's knowledge set B is the set of worlds
// consistent with the answer the user actually saw.
#pragma once

#include <string>
#include <vector>

#include "db/database.h"
#include "db/query.h"

namespace epi {

/// One answered query.
struct Disclosure {
  std::string user;
  std::string query_text;
  QueryPtr query;
  bool answer = false;     ///< the Boolean answer returned to the user
  std::string timestamp;   ///< free-form (e.g. "2005-03-02")

  /// The disclosed world set: satisfying worlds when the answer was "true",
  /// their complement otherwise. `backend` picks the compiled
  /// representation (kAuto: dense up to kMaxCoordinates).
  WorldSet disclosed_set(const RecordUniverse& universe,
                         SetBackend backend = SetBackend::kAuto) const;
};

/// The key of a disclosure's compiled set: the same query text answered the
/// same way discloses the same set, whoever asked. Keys the offline batch
/// dedupe and the service's disclosure memo.
std::string disclosure_key(const std::string& query_text, bool answer);

/// Instrumentation: process-wide number of Disclosure::disclosed_set calls
/// (i.e. query compilations). Batch audits cache each disclosure's compiled
/// set, so one audit() compiles each distinct (query, answer) exactly once —
/// tests assert this here.
std::size_t disclosed_set_call_count();
void reset_disclosed_set_call_count();

/// Append-only log of disclosures.
class AuditLog {
 public:
  /// Parses the query, evaluates it against the database's current state and
  /// records the disclosure. Returns the answer given to the user.
  bool record(const std::string& user, const std::string& query_text,
              const InMemoryDatabase& db, const std::string& timestamp = "");

  /// Records a disclosure with a pre-computed answer (e.g. replayed from an
  /// external log where the database state at the time is unknown).
  void record_with_answer(const std::string& user, const std::string& query_text,
                          bool answer, const std::string& timestamp = "");

  const std::vector<Disclosure>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// The distinct users appearing in the log, in first-seen order.
  std::vector<std::string> users() const;

 private:
  std::vector<Disclosure> entries_;
};

}  // namespace epi
