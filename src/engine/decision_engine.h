// The DecisionEngine: one ordered cascade of CriterionStage objects per
// prior assumption, replacing the hard-coded switch the Auditor used to
// carry. The engine owns the stage list, handles the product-prior
// projection onto critical coordinates (Section 6's "relevant worlds"
// argument, including witness lifting) and accumulates per-stage statistics
// in the AuditContext. It memoizes nothing: callers decide each distinct pair
// once (the Auditor's batch dedupe, the service's disclosure memo).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/audit_context.h"
#include "engine/criterion_stage.h"
#include "engine/incremental.h"
#include "engine/thread_pool.h"
#include "optimize/coordinate_ascent.h"
#include "util/status.h"

namespace epi {

/// The auditor's assumption about users' prior knowledge.
enum class PriorAssumption {
  kUnrestricted,      ///< any prior (Theorem 3.11 — exact and instant)
  kProduct,           ///< record-wise independence, Pi_m0 (Section 5.1)
  kLogSupermodular,   ///< no negative correlations, Pi_m+ (Section 5)
  /// Possibilistic: the user knows the exact contents of some subset of
  /// records (the subcube family; Section 4.1 machinery, always definite).
  kSubcubeKnowledge,
};

std::string to_string(PriorAssumption prior);

/// Tuning knobs for the decision stages and the batch audit path.
struct AuditorOptions {
  bool enable_sos = true;        ///< SOS certificate stage (product prior)
  unsigned max_sos_records = 4;  ///< skip SOS above this many records
  AscentOptions ascent;          ///< optimizer budget (product prior)
  /// Worker threads for Auditor::audit batch fan-out (0 = one per hardware
  /// thread). Reports are deterministic for every value.
  unsigned threads = 1;
  /// Representation for compiled world sets. kAuto keeps every universe up
  /// to kMaxCoordinates on the dense bitset path (byte-identical to the
  /// pre-backend behavior) and switches to symbolic subcube covers above.
  /// kSymbolic forces covers everywhere (the unrestricted cascade runs
  /// natively on them; other priors densify per pair, so they still cap at
  /// kMaxCoordinates). kDense forces bitsets and therefore rejects
  /// universes past the dense cap.
  SetBackend backend = SetBackend::kAuto;

  /// Rejects contradictory or degenerate settings: an enabled SOS stage that
  /// max_sos_records == 0 gates off for every universe, and an optimizer
  /// budget of zero multistarts or cycles (which would silently demote every
  /// open product-prior pair to the numeric fallback). The Auditor
  /// constructor surfaces the failure instead of clamping.
  Status validate() const;

  /// `threads` with 0 resolved to the hardware concurrency — always >= 1,
  /// never 0. ThreadPool itself rejects 0, so resolve before constructing
  /// one.
  unsigned resolved_threads() const;
};

/// Runs the per-prior stage cascade for (A, B) pairs. Construction is cheap;
/// decide() is const and safe to call from many threads sharing one
/// AuditContext. register_stage() is setup-time only — never call it while
/// decisions are in flight.
class DecisionEngine {
 public:
  /// `records` is the universe size |records| = n; it gates stages whose
  /// cost scales with the unprojected space (e.g. SOS certificates).
  DecisionEngine(unsigned records, PriorAssumption prior,
                 AuditorOptions options = {});

  PriorAssumption prior() const { return prior_; }
  const AuditorOptions& options() const { return options_; }

  const std::vector<std::unique_ptr<CriterionStage>>& stages() const {
    return stages_;
  }
  /// Stage labels in cascade order (for AuditContext::reset_stages).
  std::vector<std::string> stage_names() const;

  /// Inserts a custom stage at `position` (clamped to the list size). Note
  /// that terminal stages such as the product prior's "numeric-only"
  /// fallback always decide, so stages appended after them never run.
  void register_stage(std::unique_ptr<CriterionStage> stage,
                      std::size_t position);

  /// Decides one (A, B) pair: product-prior projection, then the stage
  /// cascade, on every call — repeats are the caller's to dedupe. Per-stage
  /// counters land in `ctx` when its slots were configured with
  /// stage_names().
  EngineDecision decide(const WorldSet& a, const WorldSet& b,
                        AuditContext& ctx) const;

  /// Streaming-session variant of decide(): decides Safe(A, S) for the
  /// session's accumulated set S, serving or updating the per-session
  /// `inc` state (see engine/incremental.h). Three tiers, cheapest first:
  /// a pinned monotone decision is returned untouched; an unchanged S
  /// (inc.dirty false) returns the recorded decision; otherwise the cascade
  /// runs with delta-evaluation for stages that support it, and the result
  /// is recorded (and pinned when the deciding stage reported monotone and
  /// ran first). Decisions are byte-identical to decide() for the same
  /// (A, S); the session state is this path's memo. `inc` must be externally
  /// serialized (the service holds the session mutex).
  EngineDecision decide_incremental(const WorldSet& a, const WorldSet& s,
                                    IncrementalContext& inc,
                                    AuditContext& ctx) const;

  /// Batch sweep: decides A against every set in `bs` in one pass, writing
  /// decisions[i] for bs[i]. Each index is decided exactly once, so a set
  /// repeated in `bs` is decided again (dedupe first). With a pool the pairs
  /// fan out across its workers (index-slot writes, so results and every
  /// counter except wall time are identical at any worker count); without
  /// one they run inline in index order.
  std::vector<EngineDecision> decide_many(const WorldSet& a,
                                          std::span<const WorldSet* const> bs,
                                          AuditContext& ctx,
                                          ThreadPool* pool = nullptr) const;

 private:
  /// run_cascade's answer plus whether it may be pinned for every S' ⊆ S.
  struct CascadeResult {
    EngineDecision decision;
    /// The deciding stage reported StageDecision::monotone, no earlier
    /// stage was invoked (an earlier kUnknown could flip for smaller S),
    /// and no projection prefix depends on S.
    bool monotone = false;
  };

  void build_stages();

  /// The shared densify → project → stage-loop body behind decide() and
  /// decide_incremental() — one code path so the two stay byte-identical by
  /// construction. With `inc` set, stages may carry per-session delta state.
  CascadeResult run_cascade(const WorldSet& a, const WorldSet& b,
                            AuditContext& ctx, IncrementalContext* inc) const;

  unsigned records_;
  PriorAssumption prior_;
  AuditorOptions options_;
  std::vector<std::unique_ptr<CriterionStage>> stages_;
  std::string exhausted_label_;
};

}  // namespace epi
