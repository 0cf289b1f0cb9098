#include "core/auditor.h"

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

/// Cache key for a disclosure's compiled WorldSet: same query text answered
/// the same way discloses the same set, whoever asked.
std::string disclosure_key(const Disclosure& d) {
  return d.query_text + (d.answer ? "\x1f+" : "\x1f-");
}

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
// per-world query evaluations), the per-entry pointers and deduplicated
// decision list, and the Section 3.3 per-user conjunctions.
struct Auditor::BatchShared {
  /// Owns one compiled WorldSet per distinct (query text, answer) pair.
  /// unordered_map node stability keeps every pointer below valid.
  std::unordered_map<std::string, WorldSet> sets;
  std::vector<std::string> entry_keys;           ///< disclosure_key per entry
  std::vector<const WorldSet*> disclosure_sets;  ///< per entry, into `sets`
  std::vector<const WorldSet*> unique_bs;        ///< deduplicated, log order
  std::vector<std::size_t> entry_slot;           ///< entry -> unique_bs index
  std::vector<std::string> users;
  std::vector<WorldSet> conjunctions;            ///< per user, Section 3.3
  std::vector<std::size_t> answered_counts;
  std::vector<const WorldSet*> unique_conjunctions;
  std::vector<std::size_t> user_slot;
};

Auditor::BatchShared Auditor::build_shared(const AuditLog& log) const {
  BatchShared shared;
  const SetBackend backend = resolved_backend();
  const std::vector<Disclosure>& entries = log.entries();

  // Compile each disclosure's set once, keyed by (query text, answer) — the
  // same query answered the same way discloses the same set, whoever asked.
  shared.entry_keys.reserve(entries.size());
  shared.disclosure_sets.reserve(entries.size());
  {
    obs::ScopedSpan compile_span("audit.compile-disclosures");
    for (const Disclosure& d : entries) {
      std::string key = disclosure_key(d);
      auto it = shared.sets.find(key);
      if (it == shared.sets.end()) {
        it = shared.sets.emplace(key, d.disclosed_set(universe_, backend)).first;
      }
      shared.disclosure_sets.push_back(&it->second);
      shared.entry_keys.push_back(std::move(key));
    }
  }

  // Deduplicate for the decision sweep: each distinct (query text, answer)
  // key is decided once per audited property, in log order. Keys that
  // compile to one set meet again in the pair memo.
  shared.entry_slot.resize(entries.size());
  {
    std::unordered_map<std::string_view, std::size_t> slot_of;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      auto [it, inserted] =
          slot_of.emplace(shared.entry_keys[i], shared.unique_bs.size());
      if (inserted) shared.unique_bs.push_back(shared.disclosure_sets[i]);
      shared.entry_slot[i] = it->second;
    }
  }

  // Section 3.3 — a user who received answers B1, ..., Bk knows
  // B1 ∩ ... ∩ Bk. Conjunctions are cheap bitset ANDs over the compiled
  // sets, and like them are independent of the audited property.
  shared.users = log.users();
  shared.conjunctions.reserve(shared.users.size());
  shared.answered_counts.reserve(shared.users.size());
  for (const std::string& user : shared.users) {
    WorldSet conjunction =
        WorldSet::universe(static_cast<unsigned>(universe_.size()), backend);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].user != user) continue;
      conjunction &= *shared.disclosure_sets[i];
      ++answered;
    }
    shared.conjunctions.push_back(std::move(conjunction));
    shared.answered_counts.push_back(answered);
  }

  shared.user_slot.resize(shared.users.size());
  for (std::size_t u = 0; u < shared.users.size(); ++u) {
    std::size_t slot = shared.unique_conjunctions.size();
    for (std::size_t v = 0; v < shared.unique_conjunctions.size(); ++v) {
      if (*shared.unique_conjunctions[v] == shared.conjunctions[u]) {
        slot = v;
        break;
      }
    }
    if (slot == shared.unique_conjunctions.size()) {
      shared.unique_conjunctions.push_back(&shared.conjunctions[u]);
    }
    shared.user_slot[u] = slot;
  }
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

  // Per-report compile accounting: the sets were compiled once for the
  // whole batch, but each report's counters state what *its* audit
  // required — first use of a key is a miss, repeats are hits — exactly
  // like a standalone audit's context. The batch amortization shows up in
  // wall time, not in doctored counters.
  {
    obs::Counter& misses = ctx.metrics().counter("engine.compile.misses");
    obs::Counter& hits = ctx.metrics().counter("engine.compile.hits");
    std::unordered_set<std::string_view> seen;
    seen.reserve(shared.sets.size());
    for (const std::string& key : shared.entry_keys) {
      (seen.insert(key).second ? misses : hits).add(1);
    }
  }

  // Decide each distinct disclosure key, fanning out across the pool. Two
  // keys may compile to one set (`!x` answered yes, `x` answered no); the
  // context's single-flight memo decides it once and counts the other as a
  // hit, so every counter is identical for every thread count.
  std::vector<EngineDecision> decisions;
  {
    obs::ScopedSpan decide_span("audit.decide-disclosures");
    if (decide_span.live()) {
      decide_span.attr("unique_pairs", std::to_string(shared.unique_bs.size()));
    }
    decide_pairs(a, shared.unique_bs, ctx, decisions);
  }

  const std::vector<Disclosure>& entries = log.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    AuditFinding f = to_finding(decisions[shared.entry_slot[i]]);
    f.user = entries[i].user;
    f.query_text = entries[i].query_text;
    f.answer = entries[i].answer;
    report.per_disclosure.push_back(std::move(f));
  }

  // Distinct conjunctions are decided in parallel; identical ones (and ones
  // matching a disclosure pair) come from the per-report memo.
  std::vector<EngineDecision> conjunction_decisions;
  {
    obs::ScopedSpan decide_span("audit.decide-conjunctions");
    if (decide_span.live()) {
      decide_span.attr("unique_pairs",
                       std::to_string(shared.unique_conjunctions.size()));
    }
    decide_pairs(a, shared.unique_conjunctions, ctx, conjunction_decisions);
  }

  for (std::size_t u = 0; u < shared.users.size(); ++u) {
    AuditFinding f = to_finding(conjunction_decisions[shared.user_slot[u]]);
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
