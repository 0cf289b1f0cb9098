// The shared word-level bitset kernel. Every dense set representation in the
// repo — WorldSet over {0,1}^n and FiniteSet over {0,...,m-1} — is a thin
// typed wrapper over these functions, so the Boolean algebra, the
// popcount/early-exit scans, the splitmix64 hashing and the fused
// set-predicates exist exactly once.
//
// Conventions:
//  * A set over a universe of `m` elements occupies words_for(m) 64-bit
//    words; element e lives at bit (e % 64) of word (e / 64).
//  * Bits at positions >= m (the tail of the last word) are always zero.
//    Operations that could set them (complement, fill) mask the last word
//    with tail_mask(m); everything else preserves the invariant.
//  * Binary operations require both operands to have the same word count;
//    the typed wrappers enforce universe compatibility before calling in.
//
// The fused predicates (intersection_subset_of, intersection_count,
// masked_weight_sum, ...) answer questions about derived sets — S∩B, A∪B —
// in a single word scan without materializing the intermediate set. They are
// the hot path of every privacy criterion: Def. 3.1 possibilistic safety is
// `(S∩B ⊆ A) ⇒ (S ⊆ A)`, Prop. 3.6/3.8 probabilistic safety compares
// P[A∩B] against P[A]·P[B], and Thm. 3.11 tests A∩B = ∅ or A∪B = Omega.
//
// ISA dispatch: the seven Boolean/popcount kernels (count, subset_of,
// disjoint and the fused predicates) additionally have a runtime-dispatched
// AVX2 implementation (dense_bits_isa.cpp) behind the `Isa` function-pointer
// table below, selected once per process from CPUID (capped with the
// EPI_FORCE_ISA environment variable). The AVX2 tier is bit-identical to the
// scalar reference in `bits::scalar`: the kernels are integer-exact by
// construction. Sets smaller than kIsaDispatchWords skip the indirect call
// and run the scalar loop inline — vectors cannot help below one SIMD
// register of words anyway. The two weight sums are scalar loops only.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace epi {
namespace bits {

using Word = std::uint64_t;

inline constexpr std::size_t kWordBits = 64;
/// Returned by find_first on an empty set.
inline constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Number of 64-bit words backing a universe of m elements.
constexpr std::size_t words_for(std::size_t m) {
  return (m + kWordBits - 1) / kWordBits;
}

/// Mask of the valid bits in the last word of an m-element universe
/// (all-ones when m is a multiple of 64).
constexpr Word tail_mask(std::size_t m) {
  const std::size_t tail = m % kWordBits;
  return tail == 0 ? ~Word{0} : (Word{1} << tail) - 1;
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix (every input bit flips
/// each output bit with probability ~1/2). Exposed so layered caches (pair
/// memos, verdict-cache shards) combine already-hashed components through
/// the same primitive instead of hand-rolled shift-xor recipes.
Word mix64(Word x);

/// 64-bit avalanche hash over the words: each word is passed through mix64
/// (salted by its position) before an FNV-style combine, and the accumulator
/// is finalized once more, so single-bit differences spread over the whole
/// output. `seed` distinguishes universes (and set types) sharing a word
/// pattern. Stable within a process run.
std::size_t hash(const Word* w, std::size_t nw, Word seed);

/// Combines two already-avalanched hashes (order-sensitive).
inline Word hash_combine(Word h, Word x) { return mix64(h ^ (x + 0x9e3779b97f4a7c15ull)); }

// --- Scans (early-exit where possible) -------------------------------------

inline bool is_empty(const Word* w, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (w[i] != 0) return false;
  }
  return true;
}

inline bool is_universe(const Word* w, std::size_t nw, std::size_t m) {
  if (nw == 0) return true;
  for (std::size_t i = 0; i + 1 < nw; ++i) {
    if (w[i] != ~Word{0}) return false;
  }
  return w[nw - 1] == tail_mask(m);
}

inline bool equal(const Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
}

/// Index of the smallest member, or npos when empty.
inline std::size_t find_first(const Word* w, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (w[i] != 0) {
      return i * kWordBits + static_cast<std::size_t>(std::countr_zero(w[i]));
    }
  }
  return npos;
}

// --- Single-element access --------------------------------------------------

inline bool test(const Word* w, std::size_t e) {
  return (w[e / kWordBits] >> (e % kWordBits)) & 1u;
}

inline void set(Word* w, std::size_t e) { w[e / kWordBits] |= Word{1} << (e % kWordBits); }

inline void reset(Word* w, std::size_t e) { w[e / kWordBits] &= ~(Word{1} << (e % kWordBits)); }

// --- Bulk mutation ----------------------------------------------------------

inline void clear_all(Word* w, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) w[i] = 0;
}

/// Sets every valid bit of an m-element universe (tail bits stay zero).
inline void fill_universe(Word* w, std::size_t nw, std::size_t m) {
  if (nw == 0) return;
  for (std::size_t i = 0; i + 1 < nw; ++i) w[i] = ~Word{0};
  w[nw - 1] = tail_mask(m);
}

inline void and_assign(Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) x[i] &= y[i];
}

inline void or_assign(Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) x[i] |= y[i];
}

inline void and_not_assign(Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) x[i] &= ~y[i];
}

inline void xor_assign(Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) x[i] ^= y[i];
}

/// out = complement of x within the m-element universe.
inline void complement(Word* out, const Word* x, std::size_t nw, std::size_t m) {
  if (nw == 0) return;
  for (std::size_t i = 0; i + 1 < nw; ++i) out[i] = ~x[i];
  out[nw - 1] = ~x[nw - 1] & tail_mask(m);
}

// --- Visitors ---------------------------------------------------------------
//
// The templated replacements for the old std::function-based for_each: the
// callback inlines into the word scan, so visiting a member costs a
// countr_zero and a blsr-style clear, not a type-erased indirect call.
// Members are visited in increasing index order (the order every report
// and floating-point accumulation in the repo is defined against).

template <typename Fn>
inline void for_each_bit(const Word* w, std::size_t nw, Fn&& fn) {
  for (std::size_t i = 0; i < nw; ++i) {
    Word word = w[i];
    while (word != 0) {
      fn(i * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

/// Visits the members of x ∩ y without materializing it.
template <typename Fn>
inline void for_each_bit_and(const Word* x, const Word* y, std::size_t nw,
                             Fn&& fn) {
  for (std::size_t i = 0; i < nw; ++i) {
    Word word = x[i] & y[i];
    while (word != 0) {
      fn(i * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

// --- Weight sums ------------------------------------------------------------
//
// Not dispatched: a vector tier could only skip all-zero blocks ahead of the
// same ascending double accumulation, which measured no faster than this
// loop. Ascending order keeps the sums bit-identical to a per-member loop.

/// Sum of weights[e] over the members of the set — Distribution::prob's
/// P[A] accumulation as one word scan.
inline double masked_weight_sum(const Word* w, std::size_t nw,
                                const double* weights) {
  double sum = 0.0;
  for_each_bit(w, nw, [&](std::size_t e) { sum += weights[e]; });
  return sum;
}

/// Sum of weights[e] over x ∩ y — P[A∩B] without materializing A∩B.
inline double intersection_weight_sum(const Word* x, const Word* y,
                                      std::size_t nw, const double* weights) {
  double sum = 0.0;
  for_each_bit_and(x, y, nw, [&](std::size_t e) { sum += weights[e]; });
  return sum;
}

// --- Scalar reference kernels -----------------------------------------------
//
// The portable implementations of every ISA-dispatched kernel. These are the
// semantic reference: the AVX2 tier must return bit-identical results (the
// `fused-kernels` model check and tests/simd_dispatch_test.cpp sweep that
// contract). They stay inline so small-set call sites — and non-x86 builds,
// where they are the only tier — pay no indirection.

namespace scalar {

inline std::size_t count(const Word* w, std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nw; ++i) c += static_cast<std::size_t>(std::popcount(w[i]));
  return c;
}

inline bool subset_of(const Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (x[i] & ~y[i]) return false;
  }
  return true;
}

inline bool disjoint(const Word* x, const Word* y, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (x[i] & y[i]) return false;
  }
  return true;
}

/// (s ∩ b) ⊆ a — Def. 3.1's "the disclosure pins the agent inside A" test
/// without building S∩B. Scanned in 4-word blocks with one OR-accumulated
/// violation mask per block: the compiler vectorizes the block body (a
/// per-word early-exit branch would block that) while a violating block
/// still exits after at most 3 extra words.
inline bool intersection_subset_of(const Word* s, const Word* b, const Word* a,
                                   std::size_t nw) {
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const Word bad = (s[i] & b[i] & ~a[i]) | (s[i + 1] & b[i + 1] & ~a[i + 1]) |
                     (s[i + 2] & b[i + 2] & ~a[i + 2]) |
                     (s[i + 3] & b[i + 3] & ~a[i + 3]);
    if (bad != 0) return false;
  }
  for (; i < nw; ++i) {
    if (s[i] & b[i] & ~a[i]) return false;
  }
  return true;
}

/// |x ∩ y|.
inline std::size_t intersection_count(const Word* x, const Word* y, std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    c += static_cast<std::size_t>(std::popcount(x[i] & y[i]));
  }
  return c;
}

/// x ∩ y ∩ z = ∅.
inline bool intersection3_empty(const Word* x, const Word* y, const Word* z,
                                std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if (x[i] & y[i] & z[i]) return false;
  }
  return true;
}

/// x ∪ y = the m-element universe — the second disjunct of Thm. 3.11.
inline bool union_is_universe(const Word* x, const Word* y, std::size_t nw,
                              std::size_t m) {
  if (nw == 0) return true;
  for (std::size_t i = 0; i + 1 < nw; ++i) {
    if ((x[i] | y[i]) != ~Word{0}) return false;
  }
  return (x[nw - 1] | y[nw - 1]) == tail_mask(m);
}

}  // namespace scalar

// --- ISA dispatch table -----------------------------------------------------

/// The instruction-set tiers a kernel implementation can target. Higher
/// tiers subsume lower ones; kScalar is always available.
enum class IsaTier { kScalar = 0, kAvx2 = 1 };

/// "scalar" / "avx2".
const char* to_string(IsaTier tier);

/// One tier's implementations of the dispatched kernels. All entries are
/// non-null and bit-identical to the `scalar` reference.
struct Isa {
  const char* name;
  IsaTier tier;
  std::size_t (*count)(const Word*, std::size_t);
  bool (*subset_of)(const Word*, const Word*, std::size_t);
  bool (*disjoint)(const Word*, const Word*, std::size_t);
  bool (*intersection_subset_of)(const Word*, const Word*, const Word*,
                                 std::size_t);
  std::size_t (*intersection_count)(const Word*, const Word*, std::size_t);
  bool (*intersection3_empty)(const Word*, const Word*, const Word*,
                              std::size_t);
  bool (*union_is_universe)(const Word*, const Word*, std::size_t, std::size_t);
};

/// The table for `tier`, or nullptr when this build/host cannot run it
/// (kAvx2 on non-x86 or on a CPU without AVX2). kScalar is never
/// null. Parity tests iterate tiers through this accessor so every SIMD
/// path on the host is diffed against the scalar reference.
const Isa* isa_for(IsaTier tier);

/// Installs `tier` as the active table. Returns false (and leaves the
/// active table unchanged) when the tier is not available on this host.
/// Test hook — production code selects once at startup via active_isa().
bool force_isa(IsaTier tier);

/// Drops the active selection so the next active_isa() re-resolves from
/// CPUID and EPI_FORCE_ISA (test hook, pairs with setenv).
void reset_isa();

namespace detail {
/// Zero before first use (constant-initialized, so no static-init-order
/// hazard); set by resolve_active_isa() / force_isa().
extern std::atomic<const Isa*> g_active_isa;
/// Resolves from CPUID, capped by EPI_FORCE_ISA when set ("scalar" or
/// "avx2": the selection never exceeds the named tier, so forcing is
/// meaningful on any host; other values warn and are ignored). Stores and
/// returns the table.
const Isa* resolve_active_isa();
}  // namespace detail

/// The process-wide active tier: best CPUID-supported tier, capped by
/// EPI_FORCE_ISA. Resolved once on first use.
inline const Isa& active_isa() {
  const Isa* isa = detail::g_active_isa.load(std::memory_order_acquire);
  return isa != nullptr ? *isa : *detail::resolve_active_isa();
}

/// Sets at or above this many words take the dispatched (possibly SIMD)
/// path; smaller ones inline the scalar loop — below one AVX2 register of
/// words, vectorization cannot win and the indirect call would only add
/// latency to the FiniteSet-heavy interval machinery.
inline constexpr std::size_t kIsaDispatchWords = 4;

// --- Dispatched kernels -----------------------------------------------------
// Public entry points keep their historical names and contracts; they route
// to the active tier for multi-register sets and to the scalar reference
// below the dispatch threshold. Results are identical either way.

inline std::size_t count(const Word* w, std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::count(w, nw);
  return active_isa().count(w, nw);
}

inline bool subset_of(const Word* x, const Word* y, std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::subset_of(x, y, nw);
  return active_isa().subset_of(x, y, nw);
}

inline bool disjoint(const Word* x, const Word* y, std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::disjoint(x, y, nw);
  return active_isa().disjoint(x, y, nw);
}

inline bool intersection_subset_of(const Word* s, const Word* b, const Word* a,
                                   std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::intersection_subset_of(s, b, a, nw);
  return active_isa().intersection_subset_of(s, b, a, nw);
}

inline std::size_t intersection_count(const Word* x, const Word* y,
                                      std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::intersection_count(x, y, nw);
  return active_isa().intersection_count(x, y, nw);
}

inline bool intersection3_empty(const Word* x, const Word* y, const Word* z,
                                std::size_t nw) {
  if (nw < kIsaDispatchWords) return scalar::intersection3_empty(x, y, z, nw);
  return active_isa().intersection3_empty(x, y, z, nw);
}

inline bool union_is_universe(const Word* x, const Word* y, std::size_t nw,
                              std::size_t m) {
  if (nw < kIsaDispatchWords) return scalar::union_is_universe(x, y, nw, m);
  return active_isa().union_is_universe(x, y, nw, m);
}

}  // namespace bits
}  // namespace epi
