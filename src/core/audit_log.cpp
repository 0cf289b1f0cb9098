#include "core/audit_log.h"

#include <algorithm>

#include "db/parser.h"
#include "obs/metrics.h"

namespace epi {
namespace {

/// Registry-backed counter; the legacy accessors below are views over it.
obs::Counter& disclosed_set_counter() {
  static obs::Counter& counter =
      obs::process_metrics().counter("audit_log.disclosed_set.calls");
  return counter;
}

}  // namespace

WorldSet Disclosure::disclosed_set(const RecordUniverse& universe,
                                   SetBackend backend) const {
  disclosed_set_counter().add(1);
  const WorldSet satisfying = query->compile(universe, backend);
  return answer ? satisfying : ~satisfying;
}

std::size_t disclosed_set_call_count() {
  return static_cast<std::size_t>(disclosed_set_counter().value());
}

void reset_disclosed_set_call_count() { disclosed_set_counter().set(0); }

std::string disclosure_key(const std::string& query_text, bool answer) {
  return query_text + (answer ? "\x1f+" : "\x1f-");
}

bool AuditLog::record(const std::string& user, const std::string& query_text,
                      const InMemoryDatabase& db, const std::string& timestamp) {
  Disclosure d;
  d.user = user;
  d.query_text = query_text;
  d.query = parse_query(query_text);
  d.answer = db.answer(*d.query);
  d.timestamp = timestamp;
  entries_.push_back(std::move(d));
  return entries_.back().answer;
}

void AuditLog::record_with_answer(const std::string& user,
                                  const std::string& query_text, bool answer,
                                  const std::string& timestamp) {
  Disclosure d;
  d.user = user;
  d.query_text = query_text;
  d.query = parse_query(query_text);
  d.answer = answer;
  d.timestamp = timestamp;
  entries_.push_back(std::move(d));
}

std::vector<std::string> AuditLog::users() const {
  std::vector<std::string> out;
  for (const Disclosure& d : entries_) {
    if (std::find(out.begin(), out.end(), d.user) == out.end()) {
      out.push_back(d.user);
    }
  }
  return out;
}

}  // namespace epi
