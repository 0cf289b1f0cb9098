#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "worlds/finite_set.h"
#include "worlds/match_vector.h"
#include "worlds/monotone.h"
#include "worlds/world.h"
#include "worlds/world_set.h"

namespace epi {
namespace {

TEST(World, BitAccess) {
  World w = world_from_string("0110");
  EXPECT_FALSE(world_bit(w, 0));
  EXPECT_TRUE(world_bit(w, 1));
  EXPECT_TRUE(world_bit(w, 2));
  EXPECT_FALSE(world_bit(w, 3));
  EXPECT_EQ(world_to_string(w, 4), "0110");
}

TEST(World, WithAndFlip) {
  World w = 0;
  w = world_with_bit(w, 2, true);
  EXPECT_EQ(world_to_string(w, 3), "001");
  w = world_flip_bit(w, 0);
  EXPECT_EQ(world_to_string(w, 3), "101");
  w = world_with_bit(w, 2, false);
  EXPECT_EQ(world_to_string(w, 3), "100");
}

TEST(World, LatticeOps) {
  World a = world_from_string("0110");
  World b = world_from_string("0011");
  EXPECT_EQ(world_to_string(world_meet(a, b), 4), "0010");
  EXPECT_EQ(world_to_string(world_join(a, b), 4), "0111");
  EXPECT_TRUE(world_leq(world_meet(a, b), a));
  EXPECT_TRUE(world_leq(a, world_join(a, b)));
  EXPECT_FALSE(world_leq(a, b));
}

TEST(World, Weight) {
  EXPECT_EQ(world_weight(world_from_string("0110")), 2u);
  EXPECT_EQ(world_weight(0), 0u);
}

TEST(World, FromStringRejectsGarbage) {
  EXPECT_THROW(world_from_string("01x"), std::invalid_argument);
}

TEST(WorldSet, EmptyAndUniverse) {
  WorldSet e(3);
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.count(), 0u);
  WorldSet u = WorldSet::universe(3);
  EXPECT_TRUE(u.is_universe());
  EXPECT_EQ(u.count(), 8u);
}

TEST(WorldSet, UniverseLargerThanOneWord) {
  WorldSet u = WorldSet::universe(8);
  EXPECT_EQ(u.count(), 256u);
  EXPECT_TRUE(u.contains(255));
}

TEST(WorldSet, InsertEraseContains) {
  WorldSet s(3);
  s.insert(5);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  s.erase(5);
  EXPECT_FALSE(s.contains(5));
  EXPECT_THROW(s.insert(8), std::out_of_range);
}

TEST(WorldSet, NOutOfRangeRejected) {
  EXPECT_THROW(WorldSet(0), std::invalid_argument);
  EXPECT_THROW(WorldSet(kMaxSymbolicCoordinates + 1), std::invalid_argument);
  // Past the dense cap a forced-dense set is rejected; kAuto switches to the
  // symbolic backend instead.
  EXPECT_THROW(WorldSet(kMaxCoordinates + 1, SetBackend::kDense),
               std::invalid_argument);
  EXPECT_EQ(WorldSet(kMaxCoordinates + 1).backend(), SetBackend::kSymbolic);
  EXPECT_EQ(WorldSet(kMaxCoordinates).backend(), SetBackend::kDense);
}

TEST(WorldSet, SetAlgebra) {
  WorldSet a(3, {0, 1, 2});
  WorldSet b(3, {2, 3});
  EXPECT_EQ((a & b), WorldSet(3, {2}));
  EXPECT_EQ((a | b), WorldSet(3, {0, 1, 2, 3}));
  EXPECT_EQ((a - b), WorldSet(3, {0, 1}));
  EXPECT_EQ((a ^ b), WorldSet(3, {0, 1, 3}));
  EXPECT_EQ((~a), WorldSet(3, {3, 4, 5, 6, 7}));
}

TEST(WorldSet, MismatchedNThrows) {
  WorldSet a(3), b(4);
  EXPECT_THROW(a & b, std::invalid_argument);
}

TEST(WorldSet, SubsetAndDisjoint) {
  WorldSet a(3, {1, 2});
  WorldSet b(3, {1, 2, 3});
  WorldSet c(3, {4, 5});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.disjoint_with(c));
  EXPECT_FALSE(a.disjoint_with(b));
}

TEST(WorldSet, MinWorld) {
  WorldSet s(4, {9, 3, 12});
  EXPECT_EQ(s.min_world(), 3u);
  EXPECT_THROW(WorldSet(4).min_world(), std::logic_error);
}

TEST(WorldSet, ToVectorSorted) {
  WorldSet s(4, {9, 3, 12});
  std::vector<World> v = s.to_vector();
  EXPECT_EQ(v, (std::vector<World>{3, 9, 12}));
}

TEST(WorldSet, FromStrings) {
  WorldSet s = WorldSet::from_strings(3, {"011", "100"});
  EXPECT_TRUE(s.contains(world_from_string("011")));
  EXPECT_TRUE(s.contains(world_from_string("100")));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_THROW(WorldSet::from_strings(3, {"01"}), std::invalid_argument);
}

TEST(WorldSet, XorTransform) {
  WorldSet s(3, {0b000, 0b011});
  WorldSet t = s.xor_with(0b101);
  EXPECT_EQ(t, WorldSet(3, {0b101, 0b110}));
  // xor is an involution
  EXPECT_EQ(t.xor_with(0b101), s);
}

TEST(WorldSet, FlipCoordinate) {
  WorldSet s(3, {0b000});
  EXPECT_EQ(s.flip_coordinate(1), WorldSet(3, {0b010}));
}

TEST(WorldSet, SetwiseMeetJoin) {
  WorldSet a(3, {0b110});
  WorldSet b(3, {0b011});
  EXPECT_EQ(a.setwise_meet(b), WorldSet(3, {0b010}));
  EXPECT_EQ(a.setwise_join(b), WorldSet(3, {0b111}));
}

TEST(WorldSet, RandomRespectsDensityRoughly) {
  Rng rng(5);
  WorldSet s = WorldSet::random(12, rng, 0.3);
  const double frac = static_cast<double>(s.count()) / s.omega_size();
  EXPECT_NEAR(frac, 0.3, 0.05);
}

TEST(WorldSet, ToStringRoundTrip) {
  WorldSet s(3, {0b110, 0b001});
  EXPECT_EQ(s.to_string(), "{100,011}");  // world 1 = "100", world 6 = "011"
}

TEST(WorldSetHash, AllSubsetsOfSmallUniverseDistinct) {
  // Exhaustive: every one of the 256 subsets of {0,1}^3 hashes differently.
  // The batch dedupe and the service's disclosure memo key sets by hash, so
  // any equal-hash pair of distinct sets costs an equality check.
  std::map<std::size_t, WorldSet> seen;
  for (World mask = 0; mask < 256; ++mask) {
    WorldSet s(3);
    for (unsigned w = 0; w < 8; ++w) {
      if ((mask >> w) & 1u) s.insert(w);
    }
    auto [it, inserted] = seen.emplace(s.hash(), s);
    EXPECT_TRUE(inserted) << "collision: " << s.to_string() << " vs "
                          << it->second.to_string();
  }
}

TEST(WorldSetHash, NoCollisionsAcrossRandomMultiWordSets) {
  // 4000 random sets over {0,1}^10 (16 words each): any collision among
  // distinct sets fails. Expected collisions for a uniform 64-bit hash:
  // ~4000^2 / 2^65 ≈ 4e-13.
  Rng rng(7);
  std::map<std::size_t, WorldSet> seen;
  for (int i = 0; i < 4000; ++i) {
    WorldSet s = WorldSet::random(10, rng, 0.5);
    auto [it, inserted] = seen.emplace(s.hash(), s);
    if (!inserted) {
      EXPECT_EQ(it->second, s) << "distinct sets share hash " << s.hash();
    }
  }
}

TEST(WorldSetHash, SingleWorldFlipAvalanches) {
  // Regression for the pre-avalanche FNV-1a scheme: toggling one world must
  // flip roughly half of the 64 output bits (we accept [16, 48] on average),
  // not just a low-bit cluster.
  Rng rng(11);
  double total_flipped = 0;
  int samples = 0;
  for (int i = 0; i < 200; ++i) {
    WorldSet s = WorldSet::random(8, rng, 0.5);
    const std::size_t before = s.hash();
    const World w = static_cast<World>(i % s.omega_size());
    if (s.contains(w)) {
      s.erase(w);
    } else {
      s.insert(w);
    }
    const std::uint64_t diff = static_cast<std::uint64_t>(before ^ s.hash());
    total_flipped += static_cast<double>(__builtin_popcountll(diff));
    ++samples;
    EXPECT_NE(diff, 0u);
  }
  const double mean = total_flipped / samples;
  EXPECT_GE(mean, 16.0);
  EXPECT_LE(mean, 48.0);
}

TEST(WorldSetHash, DependsOnWordPosition) {
  // The same word pattern in different word positions must hash differently:
  // {0} vs {64} vs {128} over a >2-word universe.
  WorldSet a(8), b(8), c(8);
  a.insert(0);
  b.insert(64);
  c.insert(128);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_NE(b.hash(), c.hash());
}

TEST(MatchVector, MatchPaperExample) {
  // Paper (Def. 5.8): pair (01011, 01101) maps to 01**1.
  World u = world_from_string("01011");
  World v = world_from_string("01101");
  MatchVector w = match(u, v);
  EXPECT_EQ(w.to_string(5), "01**1");
  EXPECT_EQ(w.star_count(), 2u);
}

TEST(MatchVector, FromStringRoundTrip) {
  MatchVector w = MatchVector::from_string("1*0*");
  EXPECT_EQ(w.to_string(4), "1*0*");
  EXPECT_THROW(MatchVector::from_string("01a"), std::invalid_argument);
}

TEST(MatchVector, Refines) {
  MatchVector w = MatchVector::from_string("01**1");
  EXPECT_TRUE(refines(world_from_string("01001"), w));
  EXPECT_TRUE(refines(world_from_string("01111"), w));
  EXPECT_FALSE(refines(world_from_string("11001"), w));
}

TEST(MatchVector, KeyDistinguishes) {
  EXPECT_NE(MatchVector::from_string("0*").key(), MatchVector::from_string("00").key());
  EXPECT_NE(MatchVector::from_string("01").key(), MatchVector::from_string("10").key());
}

TEST(TernaryTable, CodeRoundTrip) {
  TernaryTable t(4);
  for (std::size_t code = 0; code < t.size(); ++code) {
    EXPECT_EQ(t.code_of(t.vector_of(code)), code);
  }
}

TEST(TernaryTable, BoxCountsSmall) {
  WorldSet s = WorldSet::from_strings(2, {"00", "01", "11"});
  TernaryTable t = TernaryTable::box_counts(s);
  EXPECT_EQ(t.at(t.code_of(MatchVector::from_string("**"))), 3);
  EXPECT_EQ(t.at(t.code_of(MatchVector::from_string("0*"))), 2);
  EXPECT_EQ(t.at(t.code_of(MatchVector::from_string("*1"))), 2);
  EXPECT_EQ(t.at(t.code_of(MatchVector::from_string("10"))), 0);
  EXPECT_EQ(t.at(t.code_of(MatchVector::from_string("11"))), 1);
}

TEST(TernaryTable, BoxCountsAgreeWithDirectEnumeration) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    WorldSet s = WorldSet::random(5, rng, 0.4);
    TernaryTable t = TernaryTable::box_counts(s);
    for (std::size_t code = 0; code < t.size(); ++code) {
      const MatchVector w = t.vector_of(code);
      std::int64_t direct = 0;
      s.visit([&](World v) { direct += refines(v, w); });
      ASSERT_EQ(t.at(code), direct) << "w=" << w.to_string(5);
    }
  }
}

TEST(CircCounts, PaperRemark512Counts) {
  // Remark 5.12: A = {011,100,110,111}, B = {010,101,110,111}.
  // |A'B x AB' ∩ Circ(***)| = 0 and |AB x A'B' ∩ Circ(***)| = 2.
  const unsigned n = 3;
  WorldSet a = WorldSet::from_strings(n, {"011", "100", "110", "111"});
  WorldSet b = WorldSet::from_strings(n, {"010", "101", "110", "111"});
  WorldSet ab = a & b;
  WorldSet a_b = b - a;   // A'B
  WorldSet ab_ = a - b;   // AB'
  WorldSet a_b_ = ~(a | b);
  auto lhs = circ_counts(a_b, ab_);
  auto rhs = circ_counts(ab, a_b_);
  const auto star3 = MatchVector::from_string("***").key();
  EXPECT_EQ(lhs.count(star3) ? lhs.at(star3) : 0, 0);
  EXPECT_EQ(rhs.at(star3), 2);
}

TEST(CircCounts, TotalsEqualPairCount) {
  Rng rng(3);
  WorldSet x = WorldSet::random(4, rng, 0.5);
  WorldSet y = WorldSet::random(4, rng, 0.5);
  auto counts = circ_counts(x, y);
  std::int64_t total = 0;
  for (const auto& [k, v] : counts) total += v;
  EXPECT_EQ(total, static_cast<std::int64_t>(x.count() * y.count()));
}

TEST(Monotone, UpsetDownset) {
  // {11, 01, 10} is an up-set of {0,1}^2 missing only 00? No: up-set must
  // contain everything above each element; {01,10,11} is an up-set.
  WorldSet up = WorldSet::from_strings(2, {"01", "10", "11"});
  EXPECT_TRUE(is_upset(up));
  EXPECT_FALSE(is_downset(up));
  WorldSet down = WorldSet::from_strings(2, {"00", "10"});
  EXPECT_TRUE(is_downset(down));
  EXPECT_FALSE(is_upset(down));
  EXPECT_TRUE(is_upset(WorldSet::universe(2)));
  EXPECT_TRUE(is_downset(WorldSet::universe(2)));
  EXPECT_TRUE(is_upset(WorldSet(2)));
  EXPECT_TRUE(is_downset(WorldSet(2)));
}

TEST(Monotone, Closures) {
  WorldSet s(3, {world_from_string("010")});
  WorldSet up = up_closure(s);
  EXPECT_EQ(up, WorldSet::from_strings(3, {"010", "110", "011", "111"}));
  EXPECT_TRUE(is_upset(up));
  WorldSet down = down_closure(s);
  EXPECT_EQ(down, WorldSet::from_strings(3, {"010", "000"}));
  EXPECT_TRUE(is_downset(down));
}

TEST(Monotone, ClosureIsIdempotentAndMinimal) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    WorldSet s = WorldSet::random(5, rng, 0.2);
    WorldSet up = up_closure(s);
    EXPECT_TRUE(is_upset(up));
    EXPECT_TRUE(s.subset_of(up));
    EXPECT_EQ(up_closure(up), up);
    // Minimality: every element of the closure dominates some element of s.
    up.visit([&](World w) {
      bool dominated = false;
      s.visit([&](World v) { dominated |= world_leq(v, w); });
      EXPECT_TRUE(dominated);
    });
  }
}

TEST(Monotone, CriticalCoordinates) {
  // A = "coordinate 1 is set" depends only on coordinate 1.
  WorldSet a(3);
  for (World w = 0; w < 8; ++w) {
    if (world_bit(w, 1)) a.insert(w);
  }
  EXPECT_EQ(critical_coordinates(a), World{1} << 1);
  EXPECT_EQ(critical_coordinates(WorldSet::universe(3)), 0u);
  EXPECT_EQ(critical_coordinates(WorldSet(3)), 0u);
}

TEST(Monotone, CoordinateDirections) {
  WorldSet up = WorldSet::from_strings(2, {"01", "10", "11"});
  auto dirs = coordinate_directions(up);
  EXPECT_TRUE(dirs[0].increasing);
  EXPECT_FALSE(dirs[0].decreasing);
  EXPECT_TRUE(dirs[1].increasing);
  // Constant coordinate:
  WorldSet a(2, {0b00, 0b10});  // membership independent of bit 1...
  // a = {00, 01} in string order: contains worlds 0 and 2.
  auto d0 = coordinate_direction(a, 0);
  EXPECT_TRUE(d0.decreasing);
  EXPECT_FALSE(d0.increasing);
  auto d1 = coordinate_direction(a, 1);
  EXPECT_TRUE(d1.constant());
}

// FiniteSet::hash goes through the same dense_bits kernel as WorldSet::hash;
// the four suites below mirror the WorldSetHash coverage so both wrappers
// carry the same collision guarantees.

TEST(FiniteSetHash, AllSubsetsOfSmallUniverseDistinct) {
  // Exhaustive: every one of the 256 subsets of an 8-element universe hashes
  // differently.
  std::map<std::size_t, FiniteSet> seen;
  for (unsigned mask = 0; mask < 256; ++mask) {
    FiniteSet s(8);
    for (std::size_t e = 0; e < 8; ++e) {
      if ((mask >> e) & 1u) s.insert(e);
    }
    auto [it, inserted] = seen.emplace(s.hash(), s);
    EXPECT_TRUE(inserted) << "collision: " << s.to_string() << " vs "
                          << it->second.to_string();
  }
}

TEST(FiniteSetHash, NoCollisionsAcrossRandomMultiWordSets) {
  // 4000 random sets over a 1024-element universe (16 words each).
  Rng rng(7);
  std::map<std::size_t, FiniteSet> seen;
  for (int i = 0; i < 4000; ++i) {
    FiniteSet s = FiniteSet::random(1024, rng, 0.5);
    auto [it, inserted] = seen.emplace(s.hash(), s);
    if (!inserted) {
      EXPECT_EQ(it->second, s) << "distinct sets share hash " << s.hash();
    }
  }
}

TEST(FiniteSetHash, SingleElementFlipAvalanches) {
  // Toggling one element must flip roughly half of the 64 output bits
  // ([16, 48] on average), not just a low-bit cluster.
  Rng rng(11);
  double total_flipped = 0;
  int samples = 0;
  for (int i = 0; i < 200; ++i) {
    FiniteSet s = FiniteSet::random(256, rng, 0.5);
    const std::size_t before = s.hash();
    const std::size_t e = static_cast<std::size_t>(i) % s.universe_size();
    if (s.contains(e)) {
      s.erase(e);
    } else {
      s.insert(e);
    }
    const std::uint64_t diff = static_cast<std::uint64_t>(before ^ s.hash());
    total_flipped += static_cast<double>(__builtin_popcountll(diff));
    ++samples;
    EXPECT_NE(diff, 0u);
  }
  const double mean = total_flipped / samples;
  EXPECT_GE(mean, 16.0);
  EXPECT_LE(mean, 48.0);
}

TEST(FiniteSetHash, DependsOnWordPositionAndUniverse) {
  // The same word pattern in different word positions must hash differently,
  // and the universe size salts the seed: {0} over m=256 differs from {0}
  // over m=257.
  FiniteSet a(256), b(256), c(256);
  a.insert(0);
  b.insert(64);
  c.insert(128);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_NE(b.hash(), c.hash());
  FiniteSet d(257);
  d.insert(0);
  EXPECT_NE(a.hash(), d.hash());
}

TEST(FiniteSetHash, FunctorMatchesMethod) {
  FiniteSet s(64, {3, 17, 42});
  EXPECT_EQ(FiniteSetHash{}(s), s.hash());
  WorldSet w(6, {3, 17, 42});
  EXPECT_EQ(WorldSetHash{}(w), w.hash());
}

// --- Fused predicates vs their compositional definitions --------------------

TEST(FusedPredicates, WorldSetAgreesWithComposition) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const WorldSet s = WorldSet::random(7, rng);
    const WorldSet b = WorldSet::random(7, rng);
    const WorldSet a = WorldSet::random(7, rng, 0.7);
    EXPECT_EQ(intersection_subset_of(s, b, a), (s & b).subset_of(a));
    EXPECT_EQ(intersection_count(s, b), (s & b).count());
    EXPECT_EQ(union_is_universe(s, b), (s | b).is_universe());
    std::vector<World> fused, materialized;
    visit_intersection(s, b, [&](World w) { fused.push_back(w); });
    (s & b).visit([&](World w) { materialized.push_back(w); });
    EXPECT_EQ(fused, materialized);
  }
}

TEST(FusedPredicates, FiniteSetAgreesWithComposition) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    const FiniteSet s = FiniteSet::random(100, rng);
    const FiniteSet b = FiniteSet::random(100, rng);
    const FiniteSet a = FiniteSet::random(100, rng, 0.7);
    EXPECT_EQ(intersection_subset_of(s, b, a), (s & b).subset_of(a));
    EXPECT_EQ(intersection_count(s, b), (s & b).count());
    EXPECT_EQ(intersection_disjoint(s, b, a), ((s & b) & a).is_empty());
    EXPECT_EQ(union_is_universe(s, b), (s | b).is_universe());
  }
}

TEST(FusedPredicates, MismatchedUniversesThrow) {
  const WorldSet a(3), b(4);
  EXPECT_THROW(intersection_subset_of(a, a, b), std::invalid_argument);
  EXPECT_THROW(intersection_count(a, b), std::invalid_argument);
  EXPECT_THROW(union_is_universe(a, b), std::invalid_argument);
  const FiniteSet f(8), g(9);
  EXPECT_THROW(intersection_subset_of(f, f, g), std::invalid_argument);
  EXPECT_THROW(intersection_disjoint(f, g, f), std::invalid_argument);
}

TEST(FusedPredicates, WeightSumsBitIdenticalToPerWorldLoop) {
  Rng rng(31);
  const WorldSet a = WorldSet::random(8, rng);
  const WorldSet b = WorldSet::random(8, rng);
  std::vector<double> weights(a.omega_size());
  for (double& w : weights) w = rng.next_double();
  double direct = 0.0;
  a.visit([&](World w) { direct += weights[w]; });
  EXPECT_EQ(masked_weight_sum(a, weights.data()), direct);
  double inter = 0.0;
  (a & b).visit([&](World w) { inter += weights[w]; });
  EXPECT_EQ(intersection_weight_sum(a, b, weights.data()), inter);
}

// --- Setwise meet/join early exits (Thm. 5.3) -------------------------------

TEST(WorldSet, SetwiseMeetJoinEmptyOperand) {
  const WorldSet empty(3);
  const WorldSet b(3, {0b011, 0b101});
  EXPECT_TRUE(empty.setwise_meet(b).is_empty());
  EXPECT_TRUE(b.setwise_meet(empty).is_empty());
  EXPECT_TRUE(empty.setwise_join(b).is_empty());
  EXPECT_TRUE(b.setwise_join(empty).is_empty());
}

TEST(WorldSet, SetwiseMeetJoinUniverseOperandMatchesPairwise) {
  // The universe early exit (down/up closure) must agree with the pairwise
  // definition {u op v}. Compute the reference by brute force.
  Rng rng(37);
  for (int i = 0; i < 20; ++i) {
    const WorldSet b = WorldSet::random(4, rng, 0.4);
    if (b.is_empty()) continue;
    const WorldSet omega = WorldSet::universe(4);
    WorldSet meet_ref(4), join_ref(4);
    omega.visit([&](World u) {
      b.visit([&](World v) {
        meet_ref.insert(u & v);
        join_ref.insert(u | v);
      });
    });
    EXPECT_EQ(omega.setwise_meet(b), meet_ref);
    EXPECT_EQ(b.setwise_meet(omega), meet_ref);
    EXPECT_EQ(omega.setwise_join(b), join_ref);
    EXPECT_EQ(b.setwise_join(omega), join_ref);
  }
}

}  // namespace
}  // namespace epi
