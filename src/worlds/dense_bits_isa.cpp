// The runtime-dispatched AVX2 tier of the epi::bits Boolean and popcount
// kernels. The tier is compiled with a per-function target attribute (no
// global -mavx* flags, so the rest of the binary stays baseline-x86-64 and
// the process can never fault on an unsupported instruction: the tier is
// only entered after CPUID says it exists).
//
// Bit-identity contract (checked by the `fused-kernels` model check and
// tests/simd_dispatch_test.cpp): every function here returns exactly what
// its bits::scalar counterpart returns. The kernels are integer-exact by
// construction. The double weight sums are not dispatched at all: a vector
// tier can only skip zero blocks ahead of the ascending scalar accumulation,
// and measured at n = 20 that was no faster than the scalar loop.
#include "worlds/dense_bits.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define EPI_BITS_X86_SIMD 1
#include <immintrin.h>
#else
#define EPI_BITS_X86_SIMD 0
#endif

namespace epi {
namespace bits {

const char* to_string(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar: return "scalar";
    case IsaTier::kAvx2: return "avx2";
  }
  return "scalar";
}

namespace {

// The scalar table routes straight to the reference implementations; it is
// the fallback on non-x86 builds and the anchor every parity test diffs
// against.
constexpr Isa kScalarIsa = {
    "scalar",
    IsaTier::kScalar,
    &scalar::count,
    &scalar::subset_of,
    &scalar::disjoint,
    &scalar::intersection_subset_of,
    &scalar::intersection_count,
    &scalar::intersection3_empty,
    &scalar::union_is_universe,
};

#if EPI_BITS_X86_SIMD

// ---- AVX2 tier: 4 words (256 bits) per step ------------------------------

/// Mula's nibble-LUT popcount: per-byte counts via two PSHUFB lookups, then
/// _mm256_sad_epu8 folds each 8-byte lane into a 64-bit partial sum. ~3x a
/// scalar popcount loop on wide sets and exact (no float, no saturation:
/// lane sums stay < 2^6 per step and accumulate in 64-bit lanes).
__attribute__((target("avx2"))) inline __m256i avx2_popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) std::size_t avx2_count(const Word* w,
                                                       std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, avx2_popcount_epi64(v));
  }
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t c = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < nw; ++i) c += static_cast<std::size_t>(std::popcount(w[i]));
  return c;
}

__attribute__((target("avx2"))) bool avx2_subset_of(const Word* x,
                                                    const Word* y,
                                                    std::size_t nw) {
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i bad = _mm256_andnot_si256(vy, vx);  // x & ~y
    if (!_mm256_testz_si256(bad, bad)) return false;
  }
  for (; i < nw; ++i) {
    if (x[i] & ~y[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool avx2_disjoint(const Word* x, const Word* y,
                                                   std::size_t nw) {
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    if (!_mm256_testz_si256(vx, vy)) return false;  // testz checks x & y == 0
  }
  for (; i < nw; ++i) {
    if (x[i] & y[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool avx2_intersection_subset_of(
    const Word* s, const Word* b, const Word* a, std::size_t nw) {
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i vs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bad = _mm256_andnot_si256(va, _mm256_and_si256(vs, vb));
    if (!_mm256_testz_si256(bad, bad)) return false;
  }
  for (; i < nw; ++i) {
    if (s[i] & b[i] & ~a[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) std::size_t avx2_intersection_count(
    const Word* x, const Word* y, std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    acc = _mm256_add_epi64(acc, avx2_popcount_epi64(_mm256_and_si256(vx, vy)));
  }
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t c = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < nw; ++i) c += static_cast<std::size_t>(std::popcount(x[i] & y[i]));
  return c;
}

__attribute__((target("avx2"))) bool avx2_intersection3_empty(const Word* x,
                                                              const Word* y,
                                                              const Word* z,
                                                              std::size_t nw) {
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i vz = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z + i));
    if (!_mm256_testz_si256(_mm256_and_si256(vx, vy), vz)) return false;
  }
  for (; i < nw; ++i) {
    if (x[i] & y[i] & z[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool avx2_union_is_universe(const Word* x,
                                                            const Word* y,
                                                            std::size_t nw,
                                                            std::size_t m) {
  if (nw == 0) return true;
  const std::size_t full = nw - 1;  // words that must come out all-ones
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= full; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    // testc(v, ones) == 1  iff  ones & ~v == 0  iff  v is all-ones.
    if (!_mm256_testc_si256(_mm256_or_si256(vx, vy), ones)) return false;
  }
  for (; i < full; ++i) {
    if ((x[i] | y[i]) != ~Word{0}) return false;
  }
  return (x[full] | y[full]) == tail_mask(m);
}

constexpr Isa kAvx2Isa = {
    "avx2",
    IsaTier::kAvx2,
    &avx2_count,
    &avx2_subset_of,
    &avx2_disjoint,
    &avx2_intersection_subset_of,
    &avx2_intersection_count,
    &avx2_intersection3_empty,
    &avx2_union_is_universe,
};

#endif  // EPI_BITS_X86_SIMD

/// Best tier this host can execute (CPUID on x86, scalar elsewhere).
IsaTier best_supported_tier() {
#if EPI_BITS_X86_SIMD
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
#endif
  return IsaTier::kScalar;
}

}  // namespace

const Isa* isa_for(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return &kScalarIsa;
    case IsaTier::kAvx2:
#if EPI_BITS_X86_SIMD
      if (__builtin_cpu_supports("avx2")) return &kAvx2Isa;
#endif
      return nullptr;
  }
  return nullptr;
}

bool force_isa(IsaTier tier) {
  const Isa* isa = isa_for(tier);
  if (isa == nullptr) return false;
  detail::g_active_isa.store(isa, std::memory_order_release);
  return true;
}

void reset_isa() {
  detail::g_active_isa.store(nullptr, std::memory_order_release);
}

namespace detail {

std::atomic<const Isa*> g_active_isa{nullptr};

const Isa* resolve_active_isa() {
  IsaTier tier = best_supported_tier();
  if (const char* env = std::getenv("EPI_FORCE_ISA")) {
    // The override is a cap, not a promise: requesting a tier the host
    // lacks degrades to the best supported one, so EPI_FORCE_ISA=avx2 is
    // safe (and meaningful) in CI matrices that include non-AVX2 runners.
    IsaTier requested = tier;
    if (std::strcmp(env, "scalar") == 0) {
      requested = IsaTier::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = IsaTier::kAvx2;
    } else if (env[0] != '\0') {
      std::fprintf(stderr,
                   "epi::bits: ignoring unknown EPI_FORCE_ISA=\"%s\" "
                   "(expected scalar|avx2)\n",
                   env);
    }
    if (requested < tier) tier = requested;
  }
  const Isa* isa = isa_for(tier);
  // isa_for never returns null for a tier best_supported_tier() admitted.
  g_active_isa.store(isa, std::memory_order_release);
  return isa;
}

}  // namespace detail

}  // namespace bits
}  // namespace epi
