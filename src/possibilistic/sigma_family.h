// Families Sigma of admissible user knowledge sets (Section 2, "the
// possibilistic agent's knowledge has to belong to Sigma").
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "worlds/finite_set.h"

namespace epi {

/// A family of subsets of Omega = {0,...,m-1}. Implementations expose
/// membership, enumeration (where feasible) and — for intersection-closed
/// families — the K-interval operation of Definition 4.4.
class SigmaFamily {
 public:
  virtual ~SigmaFamily() = default;

  /// Universe size m.
  virtual std::size_t universe_size() const = 0;

  /// True when `s` belongs to the family.
  virtual bool contains(const FiniteSet& s) const = 0;

  /// All members of the family; throws std::length_error when infeasibly
  /// large (e.g. the power set for m > 20).
  virtual std::vector<FiniteSet> enumerate() const = 0;

  /// Whether the family is closed under pairwise intersection (Def. 4.3
  /// lifts this to K = C (x) Sigma).
  virtual bool is_intersection_closed() const = 0;

  /// The smallest member containing both w1 and w2, or nullopt when no member
  /// contains both (Definition 4.4 without the C gate; callers apply C).
  /// Only meaningful for intersection-closed families.
  virtual std::optional<FiniteSet> interval(std::size_t w1, std::size_t w2) const = 0;

  /// Optional closed form for Delta(X, w1) of Definition 4.11, without the C
  /// gate (IntervalOracle applies C). Only a family whose intervals are tight
  /// (Def. 4.13) may answer: then every Delta class is a singleton {w2}
  /// (Cor. 4.14), and the answer lists those w2 in ascending order — exactly
  /// the classes the minimal-interval scan would find, in its order. The
  /// default returns nullopt, and IntervalOracle falls back to that scan
  /// over memoized interval() calls.
  virtual std::optional<std::vector<std::size_t>> tight_delta_classes(
      std::size_t /*w1*/, const FiniteSet& /*x*/) const {
    return std::nullopt;
  }
};

/// A family given by an explicit list of sets. Membership is a hash lookup;
/// enumerate() returns the sets in the order given.
class ExplicitSigma : public SigmaFamily {
 public:
  explicit ExplicitSigma(std::vector<FiniteSet> sets);

  std::size_t universe_size() const override { return m_; }
  bool contains(const FiniteSet& s) const override;
  std::vector<FiniteSet> enumerate() const override { return sets_; }
  bool is_intersection_closed() const override;
  std::optional<FiniteSet> interval(std::size_t w1, std::size_t w2) const override;

  /// The closure of this family under pairwise intersection.
  ExplicitSigma intersection_closure() const;

 private:
  std::size_t m_;
  std::vector<FiniteSet> sets_;
  std::unordered_set<FiniteSet, FiniteSetHash> members_;  ///< index of sets_
};

/// The power set P(Omega) — the unconstrained prior-knowledge family of
/// Section 3.4. Intersection-closed with tight intervals I({w1,w2}) = {w1,w2}.
class PowerSetSigma : public SigmaFamily {
 public:
  explicit PowerSetSigma(std::size_t m) : m_(m) {}

  std::size_t universe_size() const override { return m_; }
  bool contains(const FiniteSet& s) const override;
  std::vector<FiniteSet> enumerate() const override;
  bool is_intersection_closed() const override { return true; }
  std::optional<FiniteSet> interval(std::size_t w1, std::size_t w2) const override;

 private:
  std::size_t m_;
};

}  // namespace epi
