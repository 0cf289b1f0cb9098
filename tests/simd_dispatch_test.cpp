// The bits::Isa dispatch layer: tier resolution from CPUID and the
// EPI_FORCE_ISA override, and the bit-identity contract of every tier the
// host can run. The per-kernel parity here is deterministic and targeted
// (block boundaries, tails, zero/dense mixes); the randomized sweep lives in
// the `fused-kernels` model check.
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "worlds/dense_bits.h"
#include "worlds/world_set.h"

namespace epi {
namespace {

using bits::Isa;
using bits::IsaTier;
using bits::Word;

/// Restores the pre-test EPI_FORCE_ISA value and re-resolves the active
/// table, so dispatch-state mutations cannot leak across tests.
class IsaEnvGuard {
 public:
  IsaEnvGuard() {
    const char* env = std::getenv("EPI_FORCE_ISA");
    had_ = env != nullptr;
    if (had_) saved_ = env;
  }
  ~IsaEnvGuard() {
    if (had_) {
      ::setenv("EPI_FORCE_ISA", saved_.c_str(), 1);
    } else {
      ::unsetenv("EPI_FORCE_ISA");
    }
    bits::reset_isa();
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  const Isa* scalar = bits::isa_for(IsaTier::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->tier, IsaTier::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
  // Every slot is populated: the dispatch wrappers never null-check.
  EXPECT_NE(scalar->count, nullptr);
  EXPECT_NE(scalar->union_is_universe, nullptr);
}

TEST(SimdDispatch, ActiveIsaResolvesOnce) {
  IsaEnvGuard guard;
  ::unsetenv("EPI_FORCE_ISA");
  bits::reset_isa();
  const Isa& first = bits::active_isa();
  EXPECT_EQ(&first, &bits::active_isa());  // stable once resolved
  // The resolved tier must actually be runnable on this host.
  EXPECT_EQ(bits::isa_for(first.tier), &first);
}

TEST(SimdDispatch, ForceIsaInstallsAvailableTiersOnly) {
  IsaEnvGuard guard;
  for (IsaTier tier : {IsaTier::kScalar, IsaTier::kAvx2}) {
    const bool available = bits::isa_for(tier) != nullptr;
    EXPECT_EQ(bits::force_isa(tier), available) << bits::to_string(tier);
    if (available) {
      EXPECT_EQ(bits::active_isa().tier, tier);
    }
  }
}

TEST(SimdDispatch, EnvOverrideCapsTheResolvedTier) {
  IsaEnvGuard guard;
  // "scalar" is always runnable, so the cap must resolve to exactly scalar
  // no matter what the host supports.
  ::setenv("EPI_FORCE_ISA", "scalar", 1);
  bits::reset_isa();
  EXPECT_EQ(bits::active_isa().tier, IsaTier::kScalar);

  // Forcing a tier the host may lack must degrade to a runnable one, never
  // crash or exceed the best-supported tier.
  ::setenv("EPI_FORCE_ISA", "avx2", 1);
  bits::reset_isa();
  const Isa& capped = bits::active_isa();
  EXPECT_EQ(bits::isa_for(capped.tier), &capped);

  // Unknown values warn and fall back to the CPUID choice; "avx512" names
  // no tier, so it resolves as if the variable were unset.
  ::unsetenv("EPI_FORCE_ISA");
  bits::reset_isa();
  const IsaTier best = bits::active_isa().tier;
  EXPECT_EQ(capped.tier, best);
  for (const char* unknown : {"quantum", "avx512"}) {
    ::setenv("EPI_FORCE_ISA", unknown, 1);
    bits::reset_isa();
    EXPECT_EQ(bits::active_isa().tier, best) << unknown;
  }
}

/// One word pattern family per case: mixes of zero, all-ones, sparse and
/// dense words with a masked tail, sized to exercise the SIMD main loop
/// (blocks of 4 words) plus every scalar tail length.
struct KernelInputs {
  std::vector<Word> x, y, z;
  std::size_t nw;
  std::size_t m;
};

KernelInputs make_inputs(std::size_t nw, Rng& rng) {
  KernelInputs in;
  in.nw = nw;
  in.m = nw * bits::kWordBits - rng.next_below(bits::kWordBits);
  in.x.resize(nw);
  in.y.resize(nw);
  in.z.resize(nw);
  for (std::size_t i = 0; i < nw; ++i) {
    const auto word = [&rng]() -> Word {
      switch (rng.next_below(4)) {
        case 0: return 0;
        case 1: return ~Word{0};
        case 2: return rng.next_u64() & rng.next_u64();
        default: return rng.next_u64();
      }
    };
    in.x[i] = word();
    in.y[i] = word();
    in.z[i] = word();
  }
  const Word tail = bits::tail_mask(in.m);
  in.x[nw - 1] &= tail;
  in.y[nw - 1] &= tail;
  in.z[nw - 1] &= tail;
  return in;
}

TEST(SimdDispatch, EveryAvailableTierMatchesScalarBitForBit) {
  const Isa* ref = bits::isa_for(IsaTier::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng rng(0x51D);
  // 1..19 words: below/at/above the dispatch threshold, straddling the AVX2
  // 4-word block width with every tail length.
  const Isa* isa = bits::isa_for(IsaTier::kAvx2);
  if (isa == nullptr) return;  // scalar is the only tier on this host
  for (std::size_t nw = 1; nw < 20; ++nw) {
    for (int rep = 0; rep < 8; ++rep) {
      const KernelInputs in = make_inputs(nw, rng);
      SCOPED_TRACE(::testing::Message() << isa->name << " nw=" << nw
                                        << " rep=" << rep);
      EXPECT_EQ(isa->count(in.x.data(), nw), ref->count(in.x.data(), nw));
      EXPECT_EQ(isa->subset_of(in.x.data(), in.y.data(), nw),
                ref->subset_of(in.x.data(), in.y.data(), nw));
      EXPECT_EQ(isa->disjoint(in.x.data(), in.y.data(), nw),
                ref->disjoint(in.x.data(), in.y.data(), nw));
      EXPECT_EQ(
          isa->intersection_subset_of(in.x.data(), in.y.data(), in.z.data(), nw),
          ref->intersection_subset_of(in.x.data(), in.y.data(), in.z.data(), nw));
      EXPECT_EQ(isa->intersection_count(in.x.data(), in.y.data(), nw),
                ref->intersection_count(in.x.data(), in.y.data(), nw));
      EXPECT_EQ(
          isa->intersection3_empty(in.x.data(), in.y.data(), in.z.data(), nw),
          ref->intersection3_empty(in.x.data(), in.y.data(), in.z.data(), nw));
      EXPECT_EQ(isa->union_is_universe(in.x.data(), in.y.data(), nw, in.m),
                ref->union_is_universe(in.x.data(), in.y.data(), nw, in.m));
    }
  }
}

TEST(SimdDispatch, SubsetAndUniverseEdgeCases) {
  const Isa* ref = bits::isa_for(IsaTier::kScalar);
  // A ⊆ A, disjoint with its complement, and the complement pair covers the
  // universe — checked through the public dispatched entry points so the
  // active (SIMD) tier decides them exactly like the scalar tier.
  for (std::size_t m : {1ul, 63ul, 64ul, 65ul, 255ul, 256ul, 257ul, 1024ul}) {
    const std::size_t nw = bits::words_for(m);
    std::vector<Word> a(nw, 0), comp(nw, 0);
    Rng rng(m);
    for (std::size_t i = 0; i < nw; ++i) a[i] = rng.next_u64();
    a[nw - 1] &= bits::tail_mask(m);
    bits::complement(comp.data(), a.data(), nw, m);
    EXPECT_TRUE(bits::subset_of(a.data(), a.data(), nw)) << m;
    EXPECT_TRUE(bits::disjoint(a.data(), comp.data(), nw)) << m;
    EXPECT_TRUE(bits::union_is_universe(a.data(), comp.data(), nw, m)) << m;
    EXPECT_EQ(bits::count(a.data(), nw) + bits::count(comp.data(), nw), m);
    EXPECT_EQ(bits::count(a.data(), nw), ref->count(a.data(), nw));
  }
}

}  // namespace
}  // namespace epi
