#include "core/auditor.h"

#include <deque>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "db/parser.h"
#include "obs/trace.h"
#include "possibilistic/subcubes.h"
#include "worlds/finite_set.h"

namespace epi {
namespace {

AuditFinding to_finding(const EngineDecision& d) {
  AuditFinding f;
  f.verdict = d.verdict;
  f.method = d.method;
  f.certified = d.certified;
  f.numeric_gap = d.numeric_gap;
  f.detail = d.detail;
  return f;
}

}  // namespace

std::vector<StageStats> AuditReport::stage_stats() const {
  // Reverse the AuditContext naming scheme: counters named
  // `engine.stage.<idx>.<name>.<kind>` with kind in {invocations, decisions,
  // nanos}. The snapshot is name-sorted and the index is zero-padded, so
  // stages come back in cascade order with their three counters adjacent.
  constexpr std::string_view kPrefix = "engine.stage.";
  std::vector<StageStats> out;
  std::string current_key;  // "<idx>.<name>" of out.back()
  for (const obs::CounterSample& c : metrics.counters) {
    std::string_view name = c.name;
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    name.remove_prefix(kPrefix.size());
    const std::size_t last_dot = name.rfind('.');
    const std::size_t first_dot = name.find('.');
    if (last_dot == std::string_view::npos || first_dot >= last_dot) continue;
    const std::string_view kind = name.substr(last_dot + 1);
    const std::string_view key = name.substr(0, last_dot);
    if (out.empty() || current_key != key) {
      current_key = std::string(key);
      StageStats s;
      s.name = std::string(name.substr(first_dot + 1, last_dot - first_dot - 1));
      out.push_back(std::move(s));
    }
    StageStats& s = out.back();
    if (kind == "invocations") {
      s.invocations = static_cast<std::size_t>(c.value);
    } else if (kind == "decisions") {
      s.decisions = static_cast<std::size_t>(c.value);
    } else if (kind == "nanos") {
      s.wall_seconds = static_cast<double>(c.value) * 1e-9;
    }
  }
  return out;
}

std::size_t AuditReport::memo_hits() const {
  return static_cast<std::size_t>(metrics.counter("engine.memo.hits"));
}

std::size_t AuditReport::count(Verdict v, Section section) const {
  std::size_t c = 0;
  if (section != Section::kPerUser) {
    for (const AuditFinding& f : per_disclosure) c += f.verdict == v;
  }
  if (section != Section::kPerDisclosure) {
    for (const AuditFinding& f : per_user_cumulative) c += f.verdict == v;
  }
  return c;
}

Auditor::Auditor(RecordUniverse universe, PriorAssumption prior,
                 AuditorOptions options)
    : universe_(std::move(universe)),
      engine_(static_cast<unsigned>(universe_.size()), prior, options) {
  if (universe_.empty()) {
    throw std::invalid_argument("Auditor: empty record universe");
  }
  if (const Status s = options.validate(); !s.ok()) {
    throw std::invalid_argument(s.to_string());
  }
  const unsigned n = static_cast<unsigned>(universe_.size());
  if (options.backend == SetBackend::kDense && n > kMaxCoordinates) {
    throw std::invalid_argument(
        "Auditor: " + std::to_string(n) + " records exceed the dense cap of " +
        std::to_string(kMaxCoordinates) + "; use the symbolic backend");
  }
  if (resolved_backend() == SetBackend::kSymbolic && n > kMaxCoordinates &&
      prior != PriorAssumption::kUnrestricted) {
    throw std::invalid_argument(
        "Auditor: the " + to_string(prior) +
        " prior needs dense sets per pair, which cap at " +
        std::to_string(kMaxCoordinates) +
        " records; only the unrestricted prior audits symbolically beyond");
  }
}

SetBackend Auditor::resolved_backend() const {
  return resolve_backend(engine_.options().backend,
                         static_cast<unsigned>(universe_.size()));
}

void Auditor::ensure_subcube_oracle() const {
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  if (!subcube_oracle_) {
    auto family = std::make_shared<SubcubeSigma>(universe_.size());
    subcube_oracle_ = std::make_shared<IntervalOracle>(
        family, FiniteSet::universe(family->universe_size()));
  }
}

ThreadPool& Auditor::pool() const {
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(engine_.options().resolved_threads());
  }
  return *pool_;
}

void Auditor::decide_pairs(const WorldSet& a,
                           std::span<const WorldSet* const> bs,
                           AuditContext& ctx,
                           std::vector<EngineDecision>& out) const {
  ThreadPool* fan_out =
      (engine_.options().threads == 1 || bs.size() <= 1) ? nullptr : &pool();
  std::vector<EngineDecision> decisions = engine_.decide_many(a, bs, ctx, fan_out);
  out.insert(out.end(), std::make_move_iterator(decisions.begin()),
             std::make_move_iterator(decisions.end()));
}

std::shared_ptr<IntervalOracle> Auditor::shared_subcube_oracle() const {
  ensure_subcube_oracle();
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  return subcube_oracle_;
}

AuditFinding Auditor::audit_sets(const WorldSet& a, const WorldSet& b) const {
  AuditContext ctx;
  if (engine_.prior() == PriorAssumption::kSubcubeKnowledge) {
    ensure_subcube_oracle();
    ctx.set_interval_oracle(subcube_oracle_);
  }
  return to_finding(engine_.decide(a, b, ctx));
}

// The A-independent half of an audit. Everything here depends only on the
// log and the universe, so a batch computes it exactly once and every
// audited property reuses it: the compiled disclosed sets (the expensive
// per-world query evaluations), the Section 3.3 per-user conjunctions, and
// which of them are the same set. Under one prior Safe(A, B) depends on the
// sets alone (Def. 3.1/3.4), so an audit decides each distinct set once.
struct Auditor::BatchShared {
  /// Each distinct set an audit decides, once: the disclosure sets in log
  /// order, then the conjunctions equal to none of them. Points into `owned`.
  std::vector<const WorldSet*> distinct;
  std::size_t disclosure_slots = 0;  ///< the disclosure sets' count
  std::vector<std::size_t> entry_slot;  ///< log entry -> distinct index
  std::vector<std::string> users;
  std::vector<std::size_t> answered_counts;  ///< per user
  std::vector<std::size_t> user_slot;        ///< user -> distinct index
  std::size_t distinct_keys = 0;  ///< distinct (query text, answer) pairs
  std::size_t distinct_conjunctions = 0;
  /// Owns the distinct sets; a deque, so the pointers in `distinct` stay
  /// valid as it grows.
  std::deque<WorldSet> owned;
};

Auditor::BatchShared Auditor::build_shared(const AuditLog& log) const {
  BatchShared shared;
  const SetBackend backend = resolved_backend();
  const std::vector<Disclosure>& entries = log.entries();

  // The slot of `set` in `distinct`, appending it when no equal set is
  // there yet.
  std::unordered_map<const WorldSet*, std::size_t, PointeeHash, PointeeEqual>
      slot_of_set;
  auto slot_for = [&](WorldSet set) {
    const WorldSet* kept = &shared.owned.emplace_back(std::move(set));
    const auto [it, fresh] =
        slot_of_set.try_emplace(kept, shared.distinct.size());
    if (fresh) {
      shared.distinct.push_back(kept);
    } else {
      shared.owned.pop_back();
    }
    return it->second;
  };

  // Compile each disclosure's set once, keyed by (query text, answer) — the
  // same query answered the same way discloses the same set, whoever asked.
  // Two keys may still compile to one set (`!x` answered yes, `x` answered
  // no); they share its slot.
  shared.entry_slot.reserve(entries.size());
  {
    obs::ScopedSpan compile_span("audit.compile-disclosures");
    std::unordered_map<std::string, std::size_t> slot_of_key;
    for (const Disclosure& d : entries) {
      auto [it, fresh] =
          slot_of_key.try_emplace(disclosure_key(d.query_text, d.answer));
      if (fresh) it->second = slot_for(d.disclosed_set(universe_, backend));
      shared.entry_slot.push_back(it->second);
    }
    shared.distinct_keys = slot_of_key.size();
  }
  shared.disclosure_slots = shared.distinct.size();

  // Section 3.3 — a user who received answers B1, ..., Bk knows
  // B1 ∩ ... ∩ Bk. Conjunctions are cheap bitset ANDs over the compiled
  // sets, and like them are independent of the audited property. A
  // one-query user's conjunction is their disclosure's set, so it takes
  // that set's slot.
  shared.users = log.users();
  shared.answered_counts.reserve(shared.users.size());
  shared.user_slot.reserve(shared.users.size());
  std::unordered_set<std::size_t> conjunction_slots;
  for (const std::string& user : shared.users) {
    WorldSet conjunction =
        WorldSet::universe(static_cast<unsigned>(universe_.size()), backend);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].user != user) continue;
      conjunction &= *shared.distinct[shared.entry_slot[i]];
      ++answered;
    }
    const std::size_t slot = slot_for(std::move(conjunction));
    conjunction_slots.insert(slot);
    shared.user_slot.push_back(slot);
    shared.answered_counts.push_back(answered);
  }
  shared.distinct_conjunctions = conjunction_slots.size();
  return shared;
}

AuditReport Auditor::audit_one(const AuditLog& log,
                               std::string_view audit_query_text,
                               const BatchShared& shared) const {
  obs::ScopedSpan span("audit.run");
  if (span.live()) {
    span.attr("query", std::string(audit_query_text));
    span.attr("prior", to_string(engine_.prior()));
    span.attr("disclosures", std::to_string(log.entries().size()));
  }

  AuditReport report;
  report.audit_query = std::string(audit_query_text);
  report.prior = engine_.prior();
  const SetBackend backend = resolved_backend();
  const WorldSet a = parse_query(audit_query_text)->compile(universe_, backend);

  AuditContext ctx;
  ctx.reset_stages(engine_.stage_names());
  if (engine_.prior() == PriorAssumption::kSubcubeKnowledge) {
    obs::ScopedSpan prepare_span("audit.prepare-oracle");
    ensure_subcube_oracle();
    ctx.set_interval_oracle(subcube_oracle_);
    // Precompute the Delta classes for A once and reuse them for every
    // disclosure (the Prop. 4.1 amortization, experiment E7 measures
    // 30-200x).
    ctx.prepare_subcube(a);
  }

  // Per-report accounting: the batch compiled and deduplicated the sets
  // once, but each report's counters state what *its* audit required.
  // Compiles: the first use of a (query text, answer) key is a miss,
  // repeats are hits. Memo: one lookup per distinct key and per distinct
  // conjunction; a lookup whose set an earlier lookup already brought is a
  // hit, so hits = lookups - distinct sets. The batch amortization shows up
  // in wall time, not in doctored counters.
  const std::vector<Disclosure>& entries = log.entries();
  const std::size_t lookups = shared.distinct_keys + shared.distinct_conjunctions;
  obs::MetricsRegistry& metrics = ctx.metrics();
  metrics.counter("engine.compile.misses").add(shared.distinct_keys);
  metrics.counter("engine.compile.hits").add(entries.size() - shared.distinct_keys);
  metrics.counter("engine.memo.lookups").add(lookups);
  metrics.counter("engine.memo.hits").add(lookups - shared.distinct.size());

  // Decide each distinct set once, fanning out across the pool. Workers
  // share nothing but the context's atomic counters, so every counter is
  // identical for every thread count.
  const std::span<const WorldSet* const> distinct(shared.distinct);
  std::vector<EngineDecision> decisions;
  decisions.reserve(distinct.size());
  {
    obs::ScopedSpan decide_span("audit.decide-disclosures");
    if (decide_span.live()) {
      decide_span.attr("unique_pairs", std::to_string(shared.disclosure_slots));
    }
    decide_pairs(a, distinct.first(shared.disclosure_slots), ctx, decisions);
  }
  {
    obs::ScopedSpan decide_span("audit.decide-conjunctions");
    if (decide_span.live()) {
      decide_span.attr("unique_pairs",
                       std::to_string(distinct.size() - shared.disclosure_slots));
    }
    decide_pairs(a, distinct.subspan(shared.disclosure_slots), ctx, decisions);
  }

  for (std::size_t i = 0; i < entries.size(); ++i) {
    AuditFinding f = to_finding(decisions[shared.entry_slot[i]]);
    f.user = entries[i].user;
    f.query_text = entries[i].query_text;
    f.answer = entries[i].answer;
    report.per_disclosure.push_back(std::move(f));
  }

  for (std::size_t u = 0; u < shared.users.size(); ++u) {
    AuditFinding f = to_finding(decisions[shared.user_slot[u]]);
    f.user = shared.users[u];
    f.query_text = "<conjunction of " +
                   std::to_string(shared.answered_counts[u]) +
                   " answered queries>";
    f.answer = true;
    report.per_user_cumulative.push_back(std::move(f));
  }

  report.metrics = ctx.metrics_snapshot();
  return report;
}

std::vector<AuditReport> Auditor::audit_many(
    const AuditLog& log, std::span<const std::string> audit_queries) const {
  const BatchShared shared = build_shared(log);
  std::vector<AuditReport> reports;
  reports.reserve(audit_queries.size());
  for (const std::string& query : audit_queries) {
    reports.push_back(audit_one(log, query, shared));
  }
  return reports;
}

Status Auditor::try_audit_many(const AuditLog& log,
                               std::span<const std::string> audit_queries,
                               std::vector<AuditReport>* out) const {
  try {
    const BatchShared shared = build_shared(log);
    std::vector<AuditReport> reports;
    reports.reserve(audit_queries.size());
    for (const std::string& query : audit_queries) {
      try {
        reports.push_back(audit_one(log, query, shared));
      } catch (const std::exception& e) {
        return Status::InvalidArgument("audit query '" + query +
                                       "': " + e.what());
      }
    }
    *out = std::move(reports);
    return Status::Ok();
  } catch (const std::exception& e) {
    // Disclosed-set compilation failed — a log problem, not a query problem.
    return Status::InvalidArgument(e.what());
  }
}

AuditReport Auditor::audit(const AuditLog& log,
                           std::string_view audit_query_text) const {
  return audit_one(log, audit_query_text, build_shared(log));
}

}  // namespace epi
