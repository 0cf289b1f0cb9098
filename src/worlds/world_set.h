// Sets of worlds (subsets of Omega = {0,1}^n) with full Boolean set algebra.
// Knowledge sets, audited properties A and disclosed properties B are all
// WorldSets.
//
// WorldSet is a thin typed wrapper over one of two interchangeable backends:
//
//   * dense  — a 2^n-bit bitset driven by the shared word-level kernel in
//     worlds/dense_bits.h (the representation FiniteSet also wraps). Hot
//     loops use the templated visit() (the callback inlines into the word
//     scan) or the fused free functions below; no type-erased per-element
//     call survives anywhere (enforced by the no_function_iteration lint
//     gate). Available for n <= kMaxCoordinates.
//
//   * symbolic — a canonicalized union of subcubes of the hypercube
//     (worlds/subcube_cover.h), O(#cubes) space instead of O(2^n). This is
//     what carries audits past the dense wall, up to
//     n <= kMaxSymbolicCoordinates = 32.
//
// SetBackend::kAuto picks dense whenever it fits (n <= kMaxCoordinates) and
// symbolic above, so every pre-existing call site keeps its exact dense
// behavior — including hash values and visit order — byte for byte.
// Mixed-backend binary operations produce a symbolic result (the dense
// operand is converted); mixed comparisons densify the symbolic side (always
// possible: a dense operand proves n <= kMaxCoordinates).
//
// Backend-visible differences, by design:
//   * hash() of a dense set and of its symbolized copy differ (the symbolic
//     hash is a semantic probe signature, the dense one a word hash). Every
//     consumer (the Auditor's per-set dedupe, the service's disclosure memo)
//     verifies equality on hit, so keying either representation stays
//     correct.
//   * visit()/to_vector()/setwise_meet()/setwise_join()/masked_weight_sum()
//     are inherently dense (they walk 2^n worlds or need per-world weights)
//     and throw std::logic_error / std::invalid_argument on symbolic sets.
//     The engine densifies before any stage that needs them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "worlds/dense_bits.h"
#include "worlds/world.h"

namespace epi {

class SubcubeCover;

/// Which representation a WorldSet (or an Auditor's compiled sets) should
/// use. kAuto = dense up to kMaxCoordinates, symbolic above.
enum class SetBackend {
  kAuto,
  kDense,
  kSymbolic,
};

/// "auto" / "dense" / "symbolic".
std::string to_string(SetBackend backend);

/// Inverse of to_string; throws std::invalid_argument on anything else.
SetBackend parse_backend(const std::string& name);

/// Resolves kAuto against a universe size: dense iff n <= kMaxCoordinates.
/// Never returns kAuto.
SetBackend resolve_backend(SetBackend requested, unsigned n);

/// A subset of Omega = {0,1}^n, dense bitset or symbolic subcube cover.
///
/// n is fixed at construction; all binary operations require equal n and
/// throw std::invalid_argument otherwise. Word granularity is 64 bits.
class WorldSet {
 public:
  /// The empty subset of {0,1}^n.
  explicit WorldSet(unsigned n, SetBackend backend = SetBackend::kAuto);
  /// The subset of {0,1}^n holding exactly `worlds`.
  WorldSet(unsigned n, std::initializer_list<World> worlds);
  /// The subset of {0,1}^n holding exactly `worlds`.
  WorldSet(unsigned n, const std::vector<World>& worlds);

  WorldSet(const WorldSet& o);
  WorldSet(WorldSet&& o) noexcept;
  WorldSet& operator=(const WorldSet& o);
  WorldSet& operator=(WorldSet&& o) noexcept;
  ~WorldSet();

  /// All of {0,1}^n.
  static WorldSet universe(unsigned n, SetBackend backend = SetBackend::kAuto);
  /// Empty subset (same as the constructor; reads better at call sites).
  static WorldSet empty(unsigned n, SetBackend backend = SetBackend::kAuto);
  /// The singleton {w}.
  static WorldSet singleton(unsigned n, World w,
                            SetBackend backend = SetBackend::kAuto);
  /// Every world included independently with probability `density`.
  /// Dense-only (throws for universes past the dense cap).
  static WorldSet random(unsigned n, Rng& rng, double density = 0.5);
  /// Parses worlds given as 0/1 strings, e.g. {"011","100"}; see
  /// world_from_string for digit order.
  static WorldSet from_strings(unsigned n, const std::vector<std::string>& worlds,
                               SetBackend backend = SetBackend::kAuto);
  /// Wraps an existing symbolic cover.
  static WorldSet from_cover(SubcubeCover cover);

  unsigned n() const { return n_; }
  /// |Omega| = 2^n.
  std::size_t omega_size() const { return std::size_t{1} << n_; }

  /// True when this set uses the symbolic subcube-cover backend.
  bool symbolic() const { return cover_ != nullptr; }
  /// The backend in use (never kAuto).
  SetBackend backend() const {
    return cover_ ? SetBackend::kSymbolic : SetBackend::kDense;
  }
  /// The symbolic cover; throws std::logic_error on a dense set.
  const SubcubeCover& cover() const;

  /// A dense copy of this set (no-op copy when already dense). Throws
  /// std::invalid_argument when n > kMaxCoordinates — there is no dense
  /// representation to convert to.
  WorldSet densified() const;
  /// A symbolic copy of this set: the canonical Shannon cover of the same
  /// worlds (no-op copy when already symbolic). Lossless.
  WorldSet symbolized() const;

  bool contains(World w) const {
    if (cover_) return symbolic_contains(w);
    return w < omega_size() && bits::test(bits_.data(), w);
  }
  void insert(World w);
  void erase(World w);

  /// Number of worlds in the set.
  std::size_t count() const {
    return cover_ ? symbolic_count() : bits::count(bits_.data(), bits_.size());
  }
  /// Early-exit word scans on the dense path; O(1) / cover containment on
  /// the symbolic one.
  bool is_empty() const {
    return cover_ ? symbolic_is_empty() : bits::is_empty(bits_.data(), bits_.size());
  }
  bool is_universe() const {
    return cover_ ? symbolic_is_universe()
                  : bits::is_universe(bits_.data(), bits_.size(), omega_size());
  }

  /// 64-bit hash, stable within a process run. Dense: avalanche hash over
  /// the bit words (and n) via the shared kernel. Symbolic: a semantic probe
  /// signature (equal covers hash equal even when syntactically different,
  /// but dense and symbolic hashes of the same set differ). Keys the
  /// Auditor's per-set dedupe and the service's disclosure memo — both
  /// verify equality on hit, so cross-representation collisions/misses only
  /// cost speed.
  std::size_t hash() const {
    return cover_ ? symbolic_hash()
                  : bits::hash(bits_.data(), bits_.size(), bits::Word{n_} << 32);
  }

  /// Set algebra. `operator-` is set difference, `operator~` complement in
  /// Omega. Mixed-backend operands yield a symbolic result.
  WorldSet operator&(const WorldSet& o) const;
  WorldSet operator|(const WorldSet& o) const;
  WorldSet operator-(const WorldSet& o) const;
  WorldSet operator^(const WorldSet& o) const;
  WorldSet operator~() const;

  WorldSet& operator&=(const WorldSet& o);
  WorldSet& operator|=(const WorldSet& o);
  WorldSet& operator-=(const WorldSet& o);
  WorldSet& operator^=(const WorldSet& o);

  /// Semantic equality: true iff the two sets hold the same worlds,
  /// regardless of backend.
  bool operator==(const WorldSet& o) const;
  bool operator!=(const WorldSet& o) const { return !(*this == o); }

  /// True when *this is a subset of `o`.
  bool subset_of(const WorldSet& o) const;
  /// True when the two sets share no world.
  bool disjoint_with(const WorldSet& o) const;

  /// Smallest world in the set; throws std::logic_error when empty.
  World min_world() const;

  /// All member worlds in increasing order. Dense-only.
  std::vector<World> to_vector() const;

  /// Calls fn(w) for every member world in increasing order. The callback
  /// inlines into the kernel word scan. Dense-only: throws std::logic_error
  /// on a symbolic set (densify first, or stay at the cover level).
  template <typename Fn>
  void visit(Fn&& fn) const {
    if (cover_) throw_symbolic("visit");
    bits::for_each_bit(bits_.data(), bits_.size(),
                       [&fn](std::size_t w) { fn(static_cast<World>(w)); });
  }

  /// Image of the set under XOR with `mask` (the paper's z ^ A transform).
  WorldSet xor_with(World mask) const;

  /// Image under flipping coordinate i in every member.
  WorldSet flip_coordinate(unsigned i) const;

  /// {u /\ v : u in *this, v in o} — the setwise meet A /\ B of Theorem 5.3.
  /// Early-exits on empty operands (result is empty) and on a universe
  /// operand (the result is the other operand's down closure) instead of
  /// running the O(|A|·|B|) pairwise loop. Dense-only.
  WorldSet setwise_meet(const WorldSet& o) const;
  /// {u \/ v : u in *this, v in o} — the setwise join A \/ B of Theorem 5.3.
  /// Early-exits symmetrically (universe operand: up closure). Dense-only.
  WorldSet setwise_join(const WorldSet& o) const;

  /// Dense: comma-separated 0/1 strings, e.g. "{011,100}". Symbolic: the
  /// cover, e.g. "cover{01*,1*0}".
  std::string to_string() const;

  /// Kernel escape hatch: the backing words (words_for(2^n) of them, tail
  /// bits zero; empty on a symbolic set — check word_count()). For fused
  /// multi-set scans and benchmarks; prefer the named predicates below.
  const std::uint64_t* word_data() const { return bits_.data(); }
  std::size_t word_count() const { return bits_.size(); }

 private:
  void check_compatible(const WorldSet& o) const;
  [[noreturn]] static void throw_symbolic(const char* op);

  // Out-of-line symbolic paths (SubcubeCover is incomplete here); the inline
  // wrappers above keep the dense fast path branch-plus-kernel only.
  bool symbolic_contains(World w) const;
  std::size_t symbolic_count() const;
  bool symbolic_is_empty() const;
  bool symbolic_is_universe() const;
  std::size_t symbolic_hash() const;

  /// Replaces the representation with `cover` (drops the dense words).
  void adopt(SubcubeCover cover);

  unsigned n_;
  std::vector<std::uint64_t> bits_;       // dense backend (empty when symbolic)
  std::unique_ptr<SubcubeCover> cover_;   // symbolic backend (null when dense)
};

/// Hash functor for unordered containers keyed by WorldSet.
struct WorldSetHash {
  std::size_t operator()(const WorldSet& s) const { return s.hash(); }
};

/// Key a container by the set a pointer points to, so it copies no set: the
/// offline batch dedupe and the service's disclosure memo.
struct PointeeHash {
  std::size_t operator()(const WorldSet* s) const { return s->hash(); }
};
struct PointeeEqual {
  bool operator()(const WorldSet* x, const WorldSet* y) const {
    return *x == *y;
  }
};

// --- Fused predicates -------------------------------------------------------
// Each answers a question about a derived set (S∩B, A∪B) in one word scan on
// the dense path, and at the cover level (never materializing 2^n bits) on
// the symbolic one. All throw std::invalid_argument on mismatched n (same
// contract as the binary operators). Mixed-backend argument lists take the
// symbolic route.

/// (s ∩ b) ⊆ a — Def. 3.1 without materializing S∩B.
bool intersection_subset_of(const WorldSet& s, const WorldSet& b,
                            const WorldSet& a);

/// |x ∩ y|.
std::size_t intersection_count(const WorldSet& x, const WorldSet& y);

/// x ∩ y ∩ z = ∅ — one scan over three operands.
bool intersection3_empty(const WorldSet& x, const WorldSet& y,
                         const WorldSet& z);

/// x ∪ y = Omega — the second disjunct of Theorem 3.11.
bool union_is_universe(const WorldSet& x, const WorldSet& y);

/// Sum of weights[w] over member worlds, in increasing world order (so
/// floating-point accumulation is bit-identical to a per-world loop).
/// `weights` must have at least omega_size() entries. Dense-only: a
/// per-world weight table is itself 2^n — symbolic sets take
/// product_weight_sum below.
double masked_weight_sum(const WorldSet& s, const double* weights);

/// Sum of weights[w] over x ∩ y — P[A∩B] without materializing A∩B.
/// Dense-only, like masked_weight_sum.
double intersection_weight_sum(const WorldSet& x, const WorldSet& y,
                               const double* weights);

/// Product-prior mass P[S] for per-record marginals probs[0..n): sum over
/// member worlds of prod_i (w_i ? probs[i] : 1 - probs[i]). Dense sets
/// accumulate per world in increasing order; symbolic sets evaluate the
/// closed form per disjoint cube (O(#cubes^2 · n), never 2^n) — the two
/// agree up to floating-point association.
double product_weight_sum(const WorldSet& s, const double* probs);

/// Calls fn(w) for every world of x ∩ y in increasing order, without
/// materializing the intersection. Dense-only.
template <typename Fn>
void visit_intersection(const WorldSet& x, const WorldSet& y, Fn&& fn) {
  if (x.n() != y.n()) {
    throw std::invalid_argument("visit_intersection: mismatched n");
  }
  if (x.symbolic() || y.symbolic()) {
    throw std::logic_error("visit_intersection: dense-only; densify first");
  }
  bits::for_each_bit_and(x.word_data(), y.word_data(), x.word_count(),
                         [&fn](std::size_t w) { fn(static_cast<World>(w)); });
}

}  // namespace epi
