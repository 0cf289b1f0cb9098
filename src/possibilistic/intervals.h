// K-intervals and the interval-based privacy tests for intersection-closed
// second-level knowledge (Section 4.1 of the paper: Definitions 4.4/4.7/4.11/
// 4.13, Propositions 4.5/4.8/4.10, Corollaries 4.12/4.14).
//
// The Delta classes behind Cor. 4.12 come from one place, as world ids
// (delta_partition wraps them as sets, prepare stores them as they are):
// a family with tight intervals may state them in closed form
// (SigmaFamily::tight_delta_classes, e.g. the subcube family's
// minimality sweep); every other family goes through the minimal-interval
// scan over cached interval() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "possibilistic/sigma_family.h"

namespace epi {

/// Interval machinery for K = C (x) Sigma where Sigma is intersection-closed.
///
/// All interval queries are cached, so auditing many disclosures B_1..B_N
/// against one audit query A reuses the computed structure (the amortization
/// pointed out after Proposition 4.1). A family that answers
/// tight_delta_classes never reaches the memo from delta_partition,
/// safe_minimal_intervals or prepare. The memo is internally
/// synchronized: every const member (and PreparedAudit::safe) may be called
/// concurrently from multiple audit worker threads.
class IntervalOracle {
 public:
  /// `sigma` must be intersection-closed; throws std::invalid_argument if the
  /// family reports otherwise. `c` is the auditor's knowledge about the
  /// database (C = Omega when she knows nothing).
  IntervalOracle(std::shared_ptr<const SigmaFamily> sigma, FiniteSet c);

  std::size_t universe_size() const { return c_.universe_size(); }
  const FiniteSet& c() const { return c_; }

  /// I_K(w1, w2) of Definition 4.4 — the smallest S with (w1, S) in K and
  /// w2 in S; nullopt when the interval does not exist (conditions (14)).
  std::optional<FiniteSet> interval(std::size_t w1, std::size_t w2) const;

  /// The minimal K-intervals from w1 to X (Definition 4.7), deduplicated.
  std::vector<FiniteSet> minimal_intervals(std::size_t w1, const FiniteSet& x) const;

  /// Delta_K(X, w1) of Definition 4.11: the disjoint equivalence classes
  /// X ∩ I over the minimal intervals I from w1 to X (Proposition 4.10),
  /// ordered by their least world. Empty unless w1 ∈ C (condition (14)).
  /// Takes the family's closed form when it has one, else scans
  /// minimal_intervals.
  std::vector<FiniteSet> delta_partition(const FiniteSet& x, std::size_t w1) const;

  /// Definition 4.13: every world of an interval other than its endpoint
  /// induces a strictly smaller interval. Exhaustive check, O(m^3) interval
  /// queries.
  bool has_tight_intervals() const;

  /// Proposition 4.5: Safe_K(A,B) iff every existing interval I_K(w1,w2) with
  /// w1 in A∩B and w2 not in A intersects B - A.
  bool safe_all_intervals(const FiniteSet& a, const FiniteSet& b) const;

  /// Proposition 4.8 / Corollary 4.12: the same test restricted to intervals
  /// minimal from w1 in A∩B to Omega - A, read off delta_partition.
  bool safe_minimal_intervals(const FiniteSet& a, const FiniteSet& b) const;

  /// Corollary 4.14: the safety-margin map beta : A -> P(Omega - A) with
  /// Safe_K(A,B) iff beta(w1) ⊆ B for every w1 in A∩B. Requires tight
  /// intervals; returns nullopt otherwise. The result is indexed by world id
  /// (entries for worlds outside A are empty and meaningless).
  std::optional<std::vector<FiniteSet>> beta(const FiniteSet& a) const;

  /// Precomputed per-world Delta classes for a fixed audit query A, enabling
  /// O(|classes|) auditing of each disclosed B (Corollary 4.12). The one
  /// layout of the classes, shared read-only by every IncrementalSafe built
  /// over it: flat arrays of world ids, sized by the classes rather than by
  /// one 2^n-bit set per class.
  class PreparedAudit {
   public:
    /// Corollary 4.12 applied with the precomputed classes: bit tests on B,
    /// returning at the first class B misses.
    bool safe(const FiniteSet& b) const;

    /// Total number of stored equivalence classes (for reporting).
    std::size_t class_count() const { return class_owners_.size(); }
    /// Every class is a single world — the tight-interval case (Cor. 4.14).
    bool singleton_classes() const {
      return class_worlds_.size() == class_owners_.size();
    }

    /// The audit query the structure was prepared for.
    const FiniteSet& audit_set() const { return a_; }
    /// The ids [first, last) of Delta_K(Omega − A, w)'s classes, in
    /// delta_partition's order (empty for worlds outside A ∩ C).
    std::pair<std::uint32_t, std::uint32_t> class_range(std::size_t w) const {
      return {world_offsets_[w], world_offsets_[w + 1]};
    }
    /// Class c's worlds, ascending.
    std::span<const std::uint32_t> class_worlds(std::uint32_t c) const {
      return span_of(class_worlds_, class_offsets_, c);
    }
    /// The world w1 ∈ A that class c belongs to.
    std::uint32_t class_owner(std::uint32_t c) const { return class_owners_[c]; }
    /// The inverted index: the ids of every class containing world e,
    /// ascending (empty for e ∈ A — the classes live in Omega − A).
    std::span<const std::uint32_t> classes_containing(std::size_t e) const {
      return span_of(containing_, containing_offsets_, e);
    }

   private:
    friend class IntervalOracle;
    explicit PreparedAudit(FiniteSet a) : a_(std::move(a)) {}
    /// The CSR row `row` of (`values`, `offsets`).
    static std::span<const std::uint32_t> span_of(
        const std::vector<std::uint32_t>& values,
        const std::vector<std::uint32_t>& offsets, std::size_t row) {
      return {values.data() + offsets[row], values.data() + offsets[row + 1]};
    }

    FiniteSet a_;
    /// World w's classes are [world_offsets_[w], world_offsets_[w + 1]).
    std::vector<std::uint32_t> world_offsets_;
    /// Class c's worlds are class_worlds_[class_offsets_[c] ..
    /// class_offsets_[c + 1]); class_owners_[c] is the w1 it belongs to.
    std::vector<std::uint32_t> class_offsets_;
    std::vector<std::uint32_t> class_worlds_;
    std::vector<std::uint32_t> class_owners_;
    /// World e lies in the classes
    /// containing_[containing_offsets_[e] .. containing_offsets_[e + 1]).
    std::vector<std::uint32_t> containing_offsets_;
    std::vector<std::uint32_t> containing_;
  };

  /// Builds the precomputed audit structure for audit query A.
  PreparedAudit prepare(const FiniteSet& a) const;

  /// Incrementally-maintained Corollary 4.12 test against a *shrinking*
  /// disclosure set — the streaming-session shape, where each absorbed
  /// disclosure only intersects S (Prop. 3.10). Where PreparedAudit::safe
  /// rescans every w1 ∈ A ∩ S and every Δ-class per call, this keeps
  ///
  ///   counts[c]  = |Δ-class c ∩ S|   (none when every class is a
  ///                                     singleton {e}: it is empty
  ///                                     exactly when e ∉ S)
  ///   missed     = {w1 ∈ A : some class of w1 is disjoint with S}
  ///   violating  = |A ∩ S ∩ missed|
  ///
  /// and updates them through the prepared audit's inverted world → classes
  /// index in O(|S − S'| × degree) per shrink. Counts only fall while S
  /// shrinks, so `missed` only grows. safe() is then O(1):
  /// Safe_K(A, S) ⇔ violating == 0. Δ-classes live in Ω − A while activity
  /// tracks A ∩ S, so the two update paths never interact. The class layout
  /// itself stays in the shared PreparedAudit; a session holds only these
  /// counters and its current set. Not thread-safe; callers serialize (the
  /// service does, under the session mutex).
  class IncrementalSafe {
   public:
    /// Keeps `prepared` alive for the index's lifetime.
    explicit IncrementalSafe(
        std::shared_ptr<const PreparedAudit> prepared);

    /// Re-derives every counter for disclosure set `s` from scratch —
    /// O(total class size) bit tests. Used on first sight of a session's S
    /// and as the fallback when shrink_to is handed a non-subset.
    void reset(const FiniteSet& s);

    /// Updates the counters from the current set to `s`. Requires s ⊆
    /// current (returns false without touching anything otherwise — the
    /// caller then reset()s); cost is linear in the removed worlds times
    /// their class degree.
    bool shrink_to(const FiniteSet& s);

    bool initialized() const { return current_.has_value(); }
    const FiniteSet& current() const { return *current_; }

    /// Corollary 4.12 for (A, current): true iff no active w1 has a
    /// Δ-class disjoint with the current set.
    bool safe() const { return violating_ == 0; }
    /// |A ∩ current| == 0 — the absorbing case: once A and S are disjoint
    /// they stay disjoint under further intersection, so safe() is pinned.
    bool active_empty() const { return active_count_ == 0; }

   private:
    std::shared_ptr<const PreparedAudit> prepared_;
    FiniteSet missed_;  ///< w1 ∈ A with a class of count 0
    std::optional<FiniteSet> current_;
    /// |class ∩ current| per class id; empty for singleton classes.
    std::vector<std::uint32_t> counts_;
    std::size_t active_count_ = 0;       ///< |A ∩ current|
    std::size_t violating_ = 0;          ///< |A ∩ current ∩ missed|
  };

 private:
  /// Delta_K(X, w1) as world ids — the one producer behind delta_partition
  /// and prepare: appends each class's ascending worlds to `worlds` and the
  /// class's end offset to `offsets`, in delta_partition's order. Appends
  /// nothing unless w1 ∈ C (condition (14)). Takes the family's closed form
  /// when it has one, else scans minimal_intervals.
  void append_delta_classes(const FiniteSet& x, std::size_t w1,
                            std::vector<std::uint32_t>& worlds,
                            std::vector<std::uint32_t>& offsets) const;

  std::shared_ptr<const SigmaFamily> sigma_;
  FiniteSet c_;
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<std::size_t, std::optional<FiniteSet>> cache_;
};

}  // namespace epi
