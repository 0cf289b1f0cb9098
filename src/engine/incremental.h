// Per-session incremental-evaluation state for the streaming audit path.
//
// A session's accumulated knowledge S only ever shrinks (Def. 3.9 /
// Prop. 3.10: acquiring B1 then B2 equals acquiring B1 ∩ B2), which makes
// three observations pay off:
//
//  1. Most disclosures do not change S at all (repeat queries, supersets of
//     what the user already knows) — the last decision can be served as-is.
//  2. Some decisions are *monotone* under shrinking S: once A ∩ S = ∅
//     (Thm. 3.11) or a Def. 3.1 subset fact holds under S, it holds for
//     every S' ⊆ S, so the decision can be pinned for the session's rest.
//  3. Stages with heavy derived structure (the §4.1 interval / Δ_K
//     machinery) can update it in O(|S − S'|) instead of rebuilding.
//
// One IncrementalContext lives in each service Session and is mutated only
// under that session's mutex — no internal locking. It is never cleared in
// place: reset, reload and replay drop the whole Session, and this state
// with it. The hard contract,
// checked by the `service-composition` model check: every decision served
// from or through this state is byte-identical (verdict, method, certified,
// detail) to a from-scratch DecisionEngine::decide of the same (A, S).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/criterion_stage.h"

namespace epi {

struct IncrementalContext {
  /// How decide_incremental resolved the most recent call (for metrics).
  enum class Mode {
    kNone,       ///< no call yet
    kPinned,     ///< served the pinned monotone decision
    kUnchanged,  ///< S did not change since `last` was recorded
    kEvaluated,  ///< ran the cascade (delta-evaluating where stages support it)
  };

  /// `last` reflects a decision for some S this session has seen.
  bool valid = false;
  /// S shrank since `last` was recorded. Set by Session::absorb whenever the
  /// intersection actually changes the accumulated set; cleared only when a
  /// fresh decision is recorded. Tracking dirtiness here (rather than per
  /// absorb call) keeps the state safe across paths that absorb without
  /// deciding, e.g. a deadline expiring between the per-disclosure verdict
  /// and the cumulative one.
  bool dirty = false;
  /// `last` came from a monotone stage decision that was first in its
  /// cascade: it holds byte-identically for every S' ⊆ S, so it is served
  /// without looking at S at all.
  bool pinned = false;
  EngineDecision last;

  /// Per-stage delta state, parallel to the engine's stage list. Entries
  /// stay null for stages without delta support; `probed[i]` records that
  /// make_incremental_state was already asked once.
  std::vector<std::unique_ptr<StageIncrementalState>> stage_states;
  std::vector<bool> probed;

  Mode last_mode = Mode::kNone;

  // Lifetime counters, surfaced through the service metrics registry.
  std::uint64_t served_pinned = 0;
  std::uint64_t served_unchanged = 0;
  std::uint64_t evaluations = 0;
};

}  // namespace epi
