// Per-audit shared state: single-flight (A, B)-pair verdict memoization, the
// prepared subcube interval oracle, and the per-audit metrics registry every
// decision statistic is recorded into. One AuditContext lives for the
// duration of one Auditor::audit() call and is shared — thread-safely — by
// every worker deciding pairs for it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/criterion_stage.h"
#include "obs/metrics.h"
#include "possibilistic/intervals.h"
#include "worlds/world_set.h"

namespace epi {

/// Decision-path instrumentation for one engine stage, aggregated over an
/// audit: how often the stage ran, how often it decided, and the cumulative
/// wall time spent inside it. Derived from the audit's metrics registry
/// (counters `engine.stage.<idx>.<name>.{invocations,decisions,nanos}`).
struct StageStats {
  std::string name;
  std::size_t invocations = 0;
  std::size_t decisions = 0;
  double wall_seconds = 0.0;
};

class AuditContext {
 public:
  AuditContext();

  AuditContext(const AuditContext&) = delete;
  AuditContext& operator=(const AuditContext&) = delete;

  // --- Per-audit metrics ---------------------------------------------------
  /// Every counter below lives here; AuditReport::metrics is a snapshot of
  /// this registry, and stage_stats() / memo_hits() are views over it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  // --- Pair-verdict memoization -------------------------------------------
  /// Single-flight memo: the decision for (a, b), looked up and claimed in
  /// one step. The first caller of a pair claims it, runs `decide` and
  /// memoizes the result. Every later caller, on any thread, gets that
  /// decision and counts as a memo hit; while the claimant is still
  /// deciding, they wait for it. So each pair runs `decide` once per context,
  /// and the `engine.memo.*` and stage counters depend only on which pairs
  /// were decided, never on thread timing. If `decide` throws, the exception
  /// reaches the claimant and the claim is dropped: waiters wake and one of
  /// them claims the pair afresh, as a serial caller after the failure
  /// would. `decide` must not decide the same pair on this context (it would
  /// wait for itself).
  EngineDecision memoized(const WorldSet& a, const WorldSet& b,
                          const std::function<EngineDecision()>& decide);
  /// Number of memo hits (cross-section reuse, e.g. a one-query user's
  /// conjunction equals their single disclosure) — the `engine.memo.hits`
  /// counter.
  std::size_t memo_hits() const;

  // --- Subcube interval machinery (kSubcubeKnowledge) ---------------------
  void set_interval_oracle(std::shared_ptr<IntervalOracle> oracle);
  const std::shared_ptr<IntervalOracle>& interval_oracle() const {
    return oracle_;
  }
  /// Precomputes the Delta classes for audit query A (Prop. 4.1
  /// amortization); requires an oracle.
  void prepare_subcube(const WorldSet& a);
  /// The prepared structure when one was built for exactly this A.
  const IntervalOracle::PreparedAudit* prepared_for(const WorldSet& a) const;
  /// Owning variant of prepared_for, for state that must outlive this
  /// context (per-session incremental stage state survives worker-context
  /// rebuilds; see engine/incremental.h). Null on mismatch, like
  /// prepared_for.
  std::shared_ptr<const IntervalOracle::PreparedAudit> shared_prepared_for(
      const WorldSet& a) const;

  // --- Per-stage counters --------------------------------------------------
  /// Installs one counter triplet per stage in the metrics registry; must be
  /// called before decisions run (not thread-safe against record_stage).
  void reset_stages(const std::vector<std::string>& names);
  /// Accumulates one stage invocation (thread-safe).
  void record_stage(std::size_t index, bool decided, std::int64_t nanos);
  std::vector<StageStats> stage_stats() const;

 private:
  struct PairKey {
    WorldSet a;
    WorldSet b;
    bool operator==(const PairKey& o) const { return a == o.a && b == o.b; }
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      // Avalanche-combine the two set hashes via the shared kernel so pairs
      // differing only in B still spread over the whole table.
      return static_cast<std::size_t>(
          bits::hash_combine(k.a.hash(), k.b.hash()));
    }
  };

  /// Registry counters backing one stage's statistics; resolved once in
  /// reset_stages so record_stage stays a couple of relaxed atomic adds.
  struct StageSlot {
    obs::Counter* invocations = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* nanos = nullptr;
  };

  obs::MetricsRegistry metrics_;
  obs::Counter* memo_hits_c_;   // engine.memo.hits
  obs::Counter* memo_lookups_;  // engine.memo.lookups

  /// One pair's memo slot; `state` and `decision` are guarded by memo_mutex_.
  /// Slots are never erased and unordered_map nodes never move, so a
  /// waiter's pointer stays valid.
  struct MemoEntry {
    enum class State { kDeciding, kDecided, kAbandoned };
    State state = State::kDeciding;  // the inserting caller holds the claim
    EngineDecision decision;
  };

  std::mutex memo_mutex_;
  std::condition_variable memo_cv_;  // signalled when any entry leaves kDeciding
  std::unordered_map<PairKey, MemoEntry, PairKeyHash> memo_;

  std::shared_ptr<IntervalOracle> oracle_;
  std::optional<WorldSet> prepared_a_;
  std::shared_ptr<const IntervalOracle::PreparedAudit> prepared_;

  std::vector<std::string> stage_names_;
  std::vector<StageSlot> stage_slots_;
};

}  // namespace epi
