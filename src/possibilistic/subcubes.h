// The subcube knowledge family over Omega = {0,1}^n: the user's possible
// prior knowledge sets are exactly the subcubes Box(w), w in {0,1,*}^n —
// i.e. "the user knows the exact presence/absence of some subset of records
// and nothing else". This is the natural possibilistic analogue of the
// record-wise independence assumption, and it ties Sections 4 and 5
// together: the family is intersection-closed, its K-interval is
//     I(w1, w2) = Box(Match(w1, w2))            (Definition 5.8's objects!),
// and the intervals are tight, so the beta margin of Corollary 4.14 exists.
//
// Tightness makes the Delta classes closed-form. A world x lies in
// Box(Match(w1, w2)) iff x xor w1 ⊆ w2 xor w1 (as coordinate sets), so
// I(w1, w2) is minimal to X exactly when w2 xor w1 is ⊆-minimal in
// D = X xor w1, and its class is then {w2}:
//     beta(w1) = w1 xor Min⊆{w1 xor x : x in X}.
// tight_delta_classes() computes it with a word-parallel sweep over the
// 2^n-bit image of D, never materializing an interval.
#pragma once

#include "possibilistic/sigma_family.h"
#include "worlds/match_vector.h"

namespace epi {

/// Enumeration bound for SubcubeSigma: box() materializes a 2^n-element
/// FiniteSet per cube and enumerate() walks all 3^n match vectors, so
/// 3^13 ≈ 1.6M sets of 2^13 bits each (~1.6 GB transient) is already the
/// practical ceiling — and 3^n overflows nothing below n = 40 but thrashes
/// long before. The constructor throws std::invalid_argument past this
/// bound instead of letting the sweep run away. (This is an *enumeration*
/// bound only: symbolic SubcubeCover sets handle cubes up to
/// kMaxSymbolicCoordinates = 32 without ever enumerating.)
inline constexpr unsigned kMaxSubcubeEnumerationCoordinates = 13;

/// All subcubes of {0,1}^n as a SigmaFamily over the 2^n-element universe
/// (FiniteSet encoding: element id = world id).
class SubcubeSigma : public SigmaFamily {
 public:
  /// Throws std::invalid_argument unless
  /// 1 <= n <= kMaxSubcubeEnumerationCoordinates (see above).
  explicit SubcubeSigma(unsigned n);

  unsigned n() const { return n_; }

  /// The subcube Box(w) as a FiniteSet.
  FiniteSet box(const MatchVector& w) const;

  std::size_t universe_size() const override { return std::size_t{1} << n_; }
  /// True iff s is a non-empty subcube.
  bool contains(const FiniteSet& s) const override;
  /// All 3^n subcubes.
  std::vector<FiniteSet> enumerate() const override;
  bool is_intersection_closed() const override { return true; }
  /// Box(Match(w1, w2)) — always exists.
  std::optional<FiniteSet> interval(std::size_t w1, std::size_t w2) const override;
  /// The ascending w2 with w2 xor w1 ⊆-minimal in X xor w1 (see above):
  /// O(n * 2^n / 64) word operations and O(2^n) bits of scratch per call.
  std::optional<std::vector<std::size_t>> tight_delta_classes(
      std::size_t w1, const FiniteSet& x) const override;

 private:
  unsigned n_;
};

}  // namespace epi
