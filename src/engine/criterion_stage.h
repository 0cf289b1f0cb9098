// First-class decision stages for the DecisionEngine. Each stage wraps one
// of the paper's criteria (or an escalation such as the optimizer / SOS
// certificate) behind a uniform interface: a name for reporting, an
// applicability predicate, and a decide() that either settles the (A, B)
// pair or passes it down the cascade.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "criteria/verdict.h"
#include "probabilistic/product.h"
#include "worlds/world_set.h"

namespace epi {

class AuditContext;

/// Opaque per-(session, stage) state for delta-evaluation. A stage that can
/// re-derive its machinery incrementally under shrinking disclosure sets
/// (Def. 3.9 composition only ever intersects) returns one of these from
/// make_incremental_state() and updates it in decide_delta(). The engine
/// stores the state in the caller's IncrementalContext; it is only ever
/// touched under the owning session's mutex, so implementations need no
/// internal synchronization.
class StageIncrementalState {
 public:
  virtual ~StageIncrementalState() = default;
};

/// What one stage reports back. verdict == kUnknown means "cannot decide,
/// cascade to the next stage"; numeric_gap is meaningful either way (the
/// coordinate-ascent stage records its best gap even when it fails to find
/// a violating prior).
struct StageDecision {
  Verdict verdict = Verdict::kUnknown;
  std::string method;      ///< deciding criterion label (defaults to the stage name)
  bool certified = false;  ///< proof-backed rather than numerics-only
  double numeric_gap = 0.0;
  /// Unsafe verdicts carry a witness prior: a product witness (lifted and
  /// formatted by the engine, so projection-reduced stages stay oblivious),
  /// or a general one described by `detail` directly.
  std::optional<ProductDistribution> witness_product;
  std::string detail;  ///< human-readable witness description
  /// Monotone under disclosure composition: the decision (verdict, method,
  /// certified, detail — every byte) is guaranteed to recur for (A, B') for
  /// every B' ⊆ B. Example: once A ∩ B = ∅, any further intersection keeps
  /// A ∩ B' = ∅, so Theorem 3.11 keeps answering Safe the same way. The
  /// engine uses this to pin a session's verdict so later disclosures cost
  /// O(1); stages must only set it when the byte-identity guarantee is real.
  bool monotone = false;
};

/// The engine's final answer for one (A, B) pair. The Auditor turns this
/// into an AuditFinding by attaching the user / query provenance.
struct EngineDecision {
  Verdict verdict = Verdict::kUnknown;
  std::string method;
  bool certified = false;
  double numeric_gap = 0.0;
  std::string detail;
  /// The product witness `detail` describes, lifted back to the
  /// unprojected space (n parameters), so callers can re-check
  /// safety_gap(A, B) > 0. Set only when the deciding stage produced one.
  std::optional<ProductDistribution> witness_product;
};

/// One stage of the decision cascade. Implementations must be safe to call
/// concurrently from multiple worker threads: decide() is const and any
/// shared mutable state (memo tables, oracles) must synchronize internally
/// or live in the AuditContext.
class CriterionStage {
 public:
  virtual ~CriterionStage() = default;

  /// Stable label used in per-stage statistics and `method` strings.
  virtual std::string_view name() const = 0;

  /// Cheap gate evaluated before decide(); inapplicable stages are skipped
  /// without counting an invocation (e.g. the 3^n box tables above n = 14).
  virtual bool applicable(const WorldSet& a, const WorldSet& b,
                          const AuditContext& ctx) const {
    (void)a;
    (void)b;
    (void)ctx;
    return true;
  }

  /// Decides Safe(A, B) or returns verdict kUnknown to cascade.
  virtual StageDecision decide(const WorldSet& a, const WorldSet& b,
                               AuditContext& ctx) const = 0;

  /// Delta-evaluation opt-in. A stage that can maintain its derived
  /// structures across a session's shrinking disclosure sets returns a
  /// fresh state here; the default (nullptr) keeps the stage on the plain
  /// decide() path. Called lazily, at most once per (session, stage), with
  /// the same (projected / densified) sets decide() would see.
  virtual std::unique_ptr<StageIncrementalState> make_incremental_state(
      const WorldSet& a, const WorldSet& b, AuditContext& ctx) const {
    (void)a;
    (void)b;
    (void)ctx;
    return nullptr;
  }

  /// Decides Safe(A, B) updating `state` from the previous disclosure set to
  /// B (which, on the session path, only ever shrinks). Must return exactly
  /// the bytes decide() would — decide_delta is an optimization, never a
  /// semantic fork. Only called with a state this stage created.
  virtual StageDecision decide_delta(const WorldSet& a, const WorldSet& b,
                                     StageIncrementalState& state,
                                     AuditContext& ctx) const {
    (void)state;
    return decide(a, b, ctx);
  }
};

}  // namespace epi
