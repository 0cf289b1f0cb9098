// Symbolic world sets: a set S ⊆ Omega = {0,1}^n stored as a union of
// subcubes of the hypercube — each cube a MatchVector in {0,1,*}^n (the
// paper's Box(w), Definition 5.8). Space is O(#cubes · 1) instead of O(2^n),
// which is what lets the auditor run at n > kMaxCoordinates (up to
// kMaxSymbolicCoordinates = 32, the MatchVector packing limit).
//
// Representation invariants (established by canonicalize()):
//   * cubes are sorted by MatchVector::key() and duplicate-free;
//   * no cube is contained in another (absorption), as long as the cover is
//     small enough for the O(k^2) scan (kAbsorptionLimit) — beyond that the
//     cover stays sorted/deduplicated but may carry redundant cubes.
// Cubes of one cover may overlap; exact counting and weight sums first
// refine the cover into disjoint cubes (disjoint_cubes()).
//
// Two covers denoting the same set can still differ syntactically, so
// equality, subset and disjointness are *semantic* (cube-by-cube containment
// via the orthogonal-sharp subtraction), and semantic_hash() hashes a
// representation-independent signature (exact model count + membership on a
// fixed pseudo-random probe panel). Hash collisions are therefore possible
// but harmless: every table keyed by the hash (the Auditor's per-set dedupe,
// the service's disclosure memo) verifies equality on hit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "worlds/match_vector.h"
#include "worlds/world.h"

namespace epi {

/// A canonicalized union of subcubes of {0,1}^n. All binary operations
/// require equal n and throw std::invalid_argument otherwise.
class SubcubeCover {
 public:
  /// Safety valve: operations whose intermediate cover would exceed this many
  /// cubes throw std::length_error instead of looping toward 2^(n-1) cubes.
  static constexpr std::size_t kMaxCubes = std::size_t{1} << 20;
  /// Absorption (drop cubes contained in another) is O(k^2); applied only to
  /// covers at most this large.
  static constexpr std::size_t kAbsorptionLimit = 1024;

  /// The empty subset of {0,1}^n. Throws unless 1 <= n <= 32.
  explicit SubcubeCover(unsigned n);

  SubcubeCover(const SubcubeCover& o);
  SubcubeCover(SubcubeCover&& o) noexcept;
  SubcubeCover& operator=(const SubcubeCover& o);
  SubcubeCover& operator=(SubcubeCover&& o) noexcept;
  ~SubcubeCover() = default;

  static SubcubeCover empty(unsigned n);
  static SubcubeCover universe(unsigned n);
  static SubcubeCover singleton(unsigned n, World w);
  /// The single cube Box(c). Star/value bits above coordinate n must be 0.
  static SubcubeCover cube(unsigned n, MatchVector c);
  /// Union of the given cubes (canonicalized).
  static SubcubeCover from_cubes(unsigned n, std::vector<MatchVector> cubes);
  /// Lossless conversion from a dense bitset (words_for(2^n) words, tail bits
  /// zero): the canonical Shannon cover, extracted by recursively halving on
  /// the top coordinate and starring coordinates on which the two halves
  /// agree. Deterministic function of the *set*, not of any prior cover.
  static SubcubeCover from_dense(const std::uint64_t* words,
                                 std::size_t word_count, unsigned n);

  unsigned n() const { return n_; }
  /// |Omega| = 2^n (as a 64-bit value: n may be 32).
  std::uint64_t omega_size() const { return std::uint64_t{1} << n_; }

  std::size_t cube_count() const { return cubes_.size(); }
  const std::vector<MatchVector>& cubes() const { return cubes_; }

  bool contains(World w) const;
  /// Canonical covers denote the empty set iff they hold no cube.
  bool is_empty() const { return cubes_.empty(); }
  bool is_universe() const;
  /// Exact model count |S|, via disjoint refinement (cached).
  std::uint64_t count() const;
  /// Smallest world in the set; throws std::logic_error when empty.
  World min_world() const;

  void insert(World w);
  void erase(World w);

  SubcubeCover intersect(const SubcubeCover& o) const;
  SubcubeCover unite(const SubcubeCover& o) const;
  /// Set difference *this \ o (the orthogonal-sharp of each cube).
  SubcubeCover subtract(const SubcubeCover& o) const;
  SubcubeCover exclusive_or(const SubcubeCover& o) const;
  SubcubeCover complement() const;
  /// Image under XOR with `mask` (the paper's z ^ A transform): per cube,
  /// flips the fixed values on the masked coordinates.
  SubcubeCover xor_with(World mask) const;

  /// Semantic subset test: every cube of *this is covered by o.
  bool subset_of(const SubcubeCover& o) const;
  bool disjoint_with(const SubcubeCover& o) const;
  /// Semantic equality (mutual subset) — two syntactically different covers
  /// of the same set compare equal.
  bool equals(const SubcubeCover& o) const;

  /// Representation-independent 64-bit hash (cached): combines n, the exact
  /// model count and membership of 64 fixed pseudo-random probe worlds.
  /// Equal sets hash equal across syntactic forms; collisions possible.
  std::uint64_t semantic_hash() const;

  /// Refines the cover into pairwise-disjoint cubes with the same union
  /// (cube i minus all cubes before it). Basis for count() and weight sums.
  std::vector<MatchVector> disjoint_cubes() const;

  /// Product-prior mass P[S] = sum over worlds w in S of
  /// prod_i (w_i ? probs[i] : 1 - probs[i]), computed per disjoint cube in
  /// closed form (starred coordinates marginalize to 1). `probs` must have n
  /// entries. O(#cubes^2 · n), never 2^n.
  double product_weight(const double* probs) const;

  /// Lossless conversion to a dense bitset: clears `words` (words_for(2^n)
  /// of them) and sets the member bits. Only valid when n <= kMaxCoordinates.
  void write_dense(std::uint64_t* words, std::size_t word_count) const;

  /// E.g. "cover{01*,1*0}" (cube order = canonical key order).
  std::string to_string() const;

 private:
  SubcubeCover(unsigned n, std::vector<MatchVector> cubes);

  /// Restores the representation invariants and drops cached values.
  void canonicalize();
  void invalidate_caches();

  unsigned n_;
  std::vector<MatchVector> cubes_;
  // Lazily computed, atomically published (0 / kNoCount = unset) so that
  // const queries from concurrent audit workers race benignly: both compute
  // the same value and store it. Copies inherit a computed cache.
  static constexpr std::uint64_t kNoCount = ~std::uint64_t{0};
  mutable std::atomic<std::uint64_t> hash_cache_{0};
  mutable std::atomic<std::uint64_t> count_cache_{kNoCount};
};

// --- cube-level primitives (used by the cover algebra and tests) -----------

/// Coordinate mask: the low n bits (n <= 32).
inline World coordinate_mask(unsigned n) {
  return n >= 32 ? ~World{0} : (World{1} << n) - 1u;
}

/// True when Box(c) and Box(d) intersect: they agree on every coordinate
/// fixed in both.
inline bool cubes_intersect(const MatchVector& c, const MatchVector& d) {
  return ((c.values ^ d.values) & ~c.stars & ~d.stars) == 0;
}

/// The cube Box(c) ∩ Box(d); only meaningful when cubes_intersect(c, d).
inline MatchVector cube_meet(const MatchVector& c, const MatchVector& d) {
  MatchVector m;
  m.stars = c.stars & d.stars;
  m.values = (c.values | d.values) & ~m.stars;
  return m;
}

/// True when Box(c) ⊆ Box(d): d stars everything c stars, and they agree on
/// every coordinate fixed in d.
inline bool cube_subset(const MatchVector& c, const MatchVector& d) {
  return (c.stars & ~d.stars) == 0 && ((c.values ^ d.values) & ~d.stars) == 0;
}

/// Appends to `out` pairwise-disjoint cubes whose union is Box(c) \ Box(d)
/// (the "orthogonal sharp": one piece per coordinate starred in c but fixed
/// in d, with the earlier coordinates pinned to d's values and that
/// coordinate flipped). Appends c itself when the cubes are disjoint;
/// appends nothing when Box(c) ⊆ Box(d).
void cube_subtract(const MatchVector& c, const MatchVector& d,
                   std::vector<MatchVector>& out);

}  // namespace epi
