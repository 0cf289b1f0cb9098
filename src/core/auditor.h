// The offline auditor — the paper's motivating application. Given an audit
// query A (the sensitive property), assumptions about users' prior knowledge,
// and a log of answered queries, it decides for each disclosure whether the
// user could have *gained* confidence in A (Definitions 3.1 / 3.4), and
// additionally audits each user's accumulated disclosures (Section 3.3:
// acquiring B1 then B2 equals acquiring B1 ∩ B2).
//
// Decisions run through the staged DecisionEngine (src/engine/): an ordered
// cascade of CriterionStage objects per prior assumption, with a per-audit
// AuditContext amortizing the subcube interval machinery and collecting the
// audit's counters. A batch compiles each distinct disclosure once and
// decides each distinct set once per audited property (a one-query user's
// conjunction is their disclosure's set), fanning the decisions out across a
// thread pool with deterministic, log-order output.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/audit_log.h"
#include "criteria/verdict.h"
#include "engine/decision_engine.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "possibilistic/intervals.h"
#include "util/status.h"

namespace epi {

/// The verdict for one disclosure (or one user's accumulated disclosures).
struct AuditFinding {
  std::string user;
  std::string query_text;  ///< the query, or "<conjunction of k answers>"
  bool answer = false;
  Verdict verdict = Verdict::kUnknown;
  std::string method;      ///< the deciding criterion/stage
  bool certified = false;  ///< proof-backed (criterion/witness/SOS), not numerics
  double numeric_gap = 0.0;
  std::string detail;      ///< witness description when unsafe
};

/// Complete audit output.
struct AuditReport {
  std::string audit_query;
  PriorAssumption prior = PriorAssumption::kUnrestricted;
  std::vector<AuditFinding> per_disclosure;
  std::vector<AuditFinding> per_user_cumulative;

  /// Snapshot of the audit's metrics registry (every `engine.*` counter the
  /// audit recorded in its AuditContext). stage_stats() and memo_hits() are
  /// views over this — there are no separately maintained statistics.
  obs::MetricsSnapshot metrics;

  /// Per-stage decision counters and wall time, in engine cascade order —
  /// derived from the `engine.stage.<idx>.<name>.*` counters in `metrics`.
  std::vector<StageStats> stage_stats() const;
  /// Verdict lookups answered by a set the audit decides anyway (e.g. a
  /// one-query user's conjunction equals their single disclosure, or `x`
  /// answered no and `!x` answered yes) — the `engine.memo.hits` counter in
  /// `metrics`: lookups (one per distinct disclosure key and per distinct
  /// conjunction) minus distinct sets decided.
  std::size_t memo_hits() const;

  /// Which findings count() aggregates over.
  enum class Section { kPerDisclosure, kPerUser, kAll };

  /// Number of findings with verdict `v` in the chosen section(s). Counts
  /// BOTH the per-disclosure and the per-user cumulative sections unless a
  /// narrower section is requested.
  std::size_t count(Verdict v, Section section = Section::kAll) const;
};

/// Offline auditor over a fixed record universe.
class Auditor {
 public:
  /// Throws std::invalid_argument when the universe is empty or
  /// AuditorOptions::validate() fails — option problems surface at
  /// construction (with the Status message) instead of being clamped away.
  Auditor(RecordUniverse universe, PriorAssumption prior,
          AuditorOptions options = {});

  const RecordUniverse& universe() const { return universe_; }
  PriorAssumption prior() const { return engine_.prior(); }
  /// The compiled-set representation in use: AuditorOptions::backend with
  /// kAuto resolved against the universe size (never returns kAuto).
  SetBackend resolved_backend() const;

  /// The decision cascade; exposed so applications can register custom
  /// CriterionStages (setup time only — see docs/extending.md).
  DecisionEngine& engine() { return engine_; }
  const DecisionEngine& engine() const { return engine_; }

  /// Batch-first primary surface: audits one disclosure log against a span
  /// of sensitive properties in a single pass. The A-independent work —
  /// compiling each distinct disclosed set and building the per-user
  /// conjunctions (Section 3.3) — runs once for the whole batch instead of
  /// once per property, which is where one-log-many-properties sweeps
  /// (policy streams, aggregate-query audits) spend most of their time.
  /// reports[i] is byte-identical to `audit(log, audit_queries[i])` —
  /// findings, verdicts, and every counter except wall time — so batching
  /// is purely a throughput decision.
  std::vector<AuditReport> audit_many(
      const AuditLog& log, std::span<const std::string> audit_queries) const;

  /// Status-first variant: parse/compile failures in any query surface as
  /// InvalidArgument naming the offending query instead of a ParseError
  /// throw; `*out` is untouched on failure.
  Status try_audit_many(const AuditLog& log,
                        std::span<const std::string> audit_queries,
                        std::vector<AuditReport>* out) const;

  /// One-property wrapper over the batch path (kept for callers auditing a
  /// single sensitive property; identical output, no batch setup cost
  /// beyond the shared-store indirection).
  AuditReport audit(const AuditLog& log, std::string_view audit_query_text) const;

  /// One A-vs-B decision under the configured prior assumption.
  AuditFinding audit_sets(const WorldSet& a, const WorldSet& b) const;

  /// The lazily-built subcube interval oracle (kSubcubeKnowledge only),
  /// building it on first call. Long-lived callers that drive the engine
  /// directly (the audit service) install this into their own AuditContexts
  /// so interval memoization is amortized across requests, exactly as
  /// audit() amortizes it across a log.
  std::shared_ptr<IntervalOracle> shared_subcube_oracle() const;

 private:
  /// The A-independent half of an audit, computed once per batch: each
  /// distinct disclosure key compiled once, the per-user conjunctions, and
  /// one list of the distinct sets among them with an entry -> set and a
  /// user -> set map. Defined in the .cpp.
  struct BatchShared;

  RecordUniverse universe_;
  DecisionEngine engine_;
  void ensure_subcube_oracle() const;
  ThreadPool& pool() const;
  void decide_pairs(const WorldSet& a, std::span<const WorldSet* const> bs,
                    AuditContext& ctx, std::vector<EngineDecision>& out) const;
  /// Audits one property using the precomputed shared state; every report a
  /// batch produces comes from here.
  AuditReport audit_one(const AuditLog& log, std::string_view audit_query_text,
                        const BatchShared& shared) const;
  BatchShared build_shared(const AuditLog& log) const;

  /// Lazily-built subcube interval oracle (kSubcubeKnowledge only); shared
  /// across audits so interval memoization is amortized over the log.
  mutable std::shared_ptr<IntervalOracle> subcube_oracle_;

  /// Lazily-spawned worker pool, reused across audit() calls.
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex lazy_mutex_;
};

}  // namespace epi
