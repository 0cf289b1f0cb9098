// Per-audit shared state: the prepared subcube interval oracle and the
// per-audit metrics registry every decision statistic is recorded into. One
// AuditContext lives for the duration of one Auditor::audit() call and is
// shared by every worker deciding pairs for it; a decision only adds to its
// atomic counters. It memoizes no verdicts: an audit decides each distinct
// set once (Auditor::BatchShared), and the service keeps one disclosure memo
// per scenario (service/disclosure_memo.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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
  AuditContext() = default;

  AuditContext(const AuditContext&) = delete;
  AuditContext& operator=(const AuditContext&) = delete;

  // --- Per-audit metrics ---------------------------------------------------
  /// Every counter below lives here; AuditReport::metrics is a snapshot of
  /// this registry, and AuditReport::stage_stats() / memo_hits() are views
  /// over it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

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
  /// Registry counters backing one stage's statistics; resolved once in
  /// reset_stages so record_stage stays a couple of relaxed atomic adds.
  struct StageSlot {
    obs::Counter* invocations = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* nanos = nullptr;
  };

  obs::MetricsRegistry metrics_;

  std::shared_ptr<IntervalOracle> oracle_;
  std::optional<WorldSet> prepared_a_;
  std::shared_ptr<const IntervalOracle::PreparedAudit> prepared_;

  std::vector<std::string> stage_names_;
  std::vector<StageSlot> stage_slots_;
};

}  // namespace epi
