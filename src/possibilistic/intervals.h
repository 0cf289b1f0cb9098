// K-intervals and the interval-based privacy tests for intersection-closed
// second-level knowledge (Section 4.1 of the paper: Definitions 4.4/4.7/4.11/
// 4.13, Propositions 4.5/4.8/4.10, Corollaries 4.12/4.14).
//
// The Delta classes behind Cor. 4.12 come from one place, delta_partition:
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
#include <unordered_map>
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
  /// O(|classes|) auditing of each disclosed B (Corollary 4.12).
  class PreparedAudit {
   public:
    /// Corollary 4.12 applied with the precomputed classes.
    bool safe(const FiniteSet& b) const;

    /// Total number of stored equivalence classes (for reporting).
    std::size_t class_count() const;

    /// The audit query the structure was prepared for.
    const FiniteSet& audit_set() const { return a_; }
    /// Delta_K(Omega − A, w) for w ∈ A (empty for worlds outside A).
    const std::vector<FiniteSet>& classes(std::size_t w) const {
      return classes_[w];
    }

   private:
    friend class IntervalOracle;
    explicit PreparedAudit(FiniteSet a) : a_(std::move(a)) {}
    FiniteSet a_;
    // classes_[w] = Delta_K(Omega - A, w) for w in A (empty otherwise).
    std::vector<std::vector<FiniteSet>> classes_;
  };

  /// Builds the precomputed audit structure for audit query A.
  PreparedAudit prepare(const FiniteSet& a) const;

  /// Incrementally-maintained Corollary 4.12 test against a *shrinking*
  /// disclosure set — the streaming-session shape, where each absorbed
  /// disclosure only intersects S (Prop. 3.10). Where PreparedAudit::safe
  /// rescans every w1 ∈ A ∩ S and every Δ-class per call, this keeps
  ///
  ///   counts[c]       = |Δ-class c ∩ S|        (flattened over all w1)
  ///   zero_classes[w] = #{classes of w1=w with empty intersection}
  ///   violating       = #{w1 ∈ A ∩ S with zero_classes > 0}
  ///
  /// and updates them from an inverted world → classes index in
  /// O(|S − S'| × degree) per shrink. safe() is then O(1):
  /// Safe_K(A, S) ⇔ violating == 0 (some active w1 has a class disjoint
  /// with S exactly when it is counted in `violating`). Δ-classes live in
  /// Ω − A while activity tracks A ∩ S, so the two update paths never
  /// interact. Not thread-safe; callers serialize (the service does, under
  /// the session mutex).
  class IncrementalSafe {
   public:
    /// Keeps `prepared` alive for the index's lifetime.
    explicit IncrementalSafe(
        std::shared_ptr<const PreparedAudit> prepared);

    /// Re-derives every counter for disclosure set `s` from scratch —
    /// O(total class size). Used on first sight of a session's S and as
    /// the fallback when shrink_to is handed a non-subset.
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
    /// Flattened class layout: class c belongs to world owner_[c]; the
    /// inverted index lists, per world e ∈ Ω − A, every class containing e.
    std::vector<std::size_t> owner_;
    std::vector<std::vector<std::uint32_t>> inverted_;
    std::vector<std::size_t> first_class_;  ///< per-world flat range start
    std::vector<std::size_t> class_count_;  ///< per-world class count

    std::optional<FiniteSet> current_;
    std::vector<std::size_t> counts_;        ///< |class ∩ current|
    std::vector<std::size_t> zero_classes_;  ///< per w1 ∈ A
    std::vector<char> active_;               ///< w1 ∈ A ∩ current
    std::size_t active_count_ = 0;
    std::size_t violating_ = 0;
  };

 private:
  std::shared_ptr<const SigmaFamily> sigma_;
  FiniteSet c_;
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<std::size_t, std::optional<FiniteSet>> cache_;
};

}  // namespace epi
