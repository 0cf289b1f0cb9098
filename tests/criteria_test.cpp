#include <gtest/gtest.h>

#include "criteria/box_necessary.h"
#include "criteria/cancellation.h"
#include "criteria/miklau_suciu.h"
#include "criteria/monotonicity.h"
#include "criteria/pipeline.h"
#include "criteria/supermodular.h"
#include "criteria/unconditional.h"
#include "engine/decision_engine.h"
#include "probabilistic/modularity.h"
#include "probabilistic/product.h"
#include "probabilistic/safe.h"
#include "worlds/monotone.h"

namespace epi {
namespace {

// Exhaustive-ish maximization of the product-prior safety gap on a dense
// parameter grid (adequate ground truth for n <= 3 in tests).
double max_gap_grid(const WorldSet& a, const WorldSet& b, int steps = 20) {
  const unsigned n = a.n();
  std::vector<double> p(n, 0.0);
  double best = -1.0;
  const std::size_t total = [&] {
    std::size_t t = 1;
    for (unsigned i = 0; i < n; ++i) t *= steps + 1;
    return t;
  }();
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (unsigned i = 0; i < n; ++i) {
      p[i] = static_cast<double>(c % (steps + 1)) / steps;
      c /= steps + 1;
    }
    best = std::max(best, ProductDistribution(p).safety_gap(a, b));
  }
  return best;
}

WorldSet bit_set(unsigned n, unsigned i) {
  WorldSet s(n);
  for (World w = 0; w < (World{1} << n); ++w) {
    if (world_bit(w, i)) s.insert(w);
  }
  return s;
}

TEST(Unconditional, Theorem311Conditions) {
  WorldSet a(2, {0}), b(2, {1, 2});
  EXPECT_TRUE(unconditionally_safe(a, b));  // disjoint
  WorldSet a2(2, {0, 1}), b2(2, {1, 2, 3});
  EXPECT_TRUE(unconditionally_safe(a2, b2));  // union is Omega
  WorldSet a3(2, {0, 1}), b3(2, {1, 2});
  EXPECT_FALSE(unconditionally_safe(a3, b3));
  EXPECT_TRUE(unconditionally_safe_known_world(a3, b3, 2));   // w* in B - A
  EXPECT_FALSE(unconditionally_safe_known_world(a3, b3, 1));  // w* in A ∩ B
}

TEST(MiklauSuciu, DisjointCoordinatesAreIndependent) {
  const unsigned n = 4;
  WorldSet a = bit_set(n, 0) & bit_set(n, 1);  // depends on coords 0,1
  WorldSet b = bit_set(n, 2) | bit_set(n, 3);  // depends on coords 2,3
  EXPECT_TRUE(miklau_suciu_independent(a, b));
  EXPECT_EQ(shared_critical_coordinates(a, b), 0u);
  // Independence under arbitrary random product priors.
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    auto p = ProductDistribution::random(n, rng);
    EXPECT_NEAR(p.safety_gap(a, b), 0.0, 1e-12);
  }
}

TEST(MiklauSuciu, SharedCriticalCoordinateDetected) {
  const unsigned n = 3;
  WorldSet a = bit_set(n, 0);
  WorldSet b = bit_set(n, 0) | bit_set(n, 1);
  EXPECT_FALSE(miklau_suciu_independent(a, b));
  EXPECT_EQ(shared_critical_coordinates(a, b), 1u);
}

TEST(MiklauSuciu, PaperCounterexampleAfterTheorem57) {
  // Safe_{Pi_m0}(X1, X1-bar ∪ X2) holds but X1 is not independent of it.
  const unsigned n = 2;
  WorldSet x1 = bit_set(n, 0);
  WorldSet b = (~x1) | bit_set(n, 1);
  EXPECT_FALSE(miklau_suciu_independent(x1, b));
  EXPECT_LE(max_gap_grid(x1, b), 1e-12);  // yet epistemically safe
}

TEST(Monotonicity, FindsTrivialMask) {
  const unsigned n = 3;
  WorldSet a = up_closure(WorldSet(n, {0b011}));
  WorldSet b = down_closure(WorldSet(n, {0b100}));
  auto z = monotonicity_mask(a, b);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(*z, 0u);
  EXPECT_TRUE(upset_downset_criterion(a, b));
}

TEST(Monotonicity, FindsNontrivialMask) {
  const unsigned n = 3;
  WorldSet a0 = up_closure(WorldSet(n, {0b011}));
  WorldSet b0 = down_closure(WorldSet(n, {0b100}));
  const World mask = 0b101;
  WorldSet a = a0.xor_with(mask);
  WorldSet b = b0.xor_with(mask);
  EXPECT_FALSE(upset_downset_criterion(a, b));
  auto z = monotonicity_mask(a, b);
  ASSERT_TRUE(z.has_value());
  // The recovered mask must actually work.
  EXPECT_TRUE(is_upset(a.xor_with(*z)));
  EXPECT_TRUE(is_downset(b.xor_with(*z)));
}

TEST(Monotonicity, ImpliesProductSafety) {
  Rng rng(7);
  const unsigned n = 4;
  int passed = 0;
  for (int trial = 0; trial < 300 && passed < 40; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.3);
    WorldSet b = WorldSet::random(n, rng, 0.3);
    const World mask = static_cast<World>(rng.next_bits(n));
    a = up_closure(a).xor_with(mask);
    b = down_closure(b).xor_with(mask);
    if (!monotonicity_criterion(a, b)) continue;
    ++passed;
    for (int i = 0; i < 20; ++i) {
      auto p = ProductDistribution::random(n, rng);
      EXPECT_LE(p.safety_gap(a, b), 1e-10) << "trial " << trial;
    }
  }
  EXPECT_GT(passed, 20);
}

TEST(Corollary55, UpsetDownsetSafeForLogSupermodular) {
  Rng rng(11);
  const unsigned n = 4;
  int passed = 0;
  for (int trial = 0; trial < 100 && passed < 25; ++trial) {
    WorldSet a = up_closure(WorldSet::random(n, rng, 0.2));
    WorldSet b = down_closure(WorldSet::random(n, rng, 0.2));
    if (!upset_downset_criterion(a, b)) continue;
    ++passed;
    for (int i = 0; i < 10; ++i) {
      auto p = random_log_supermodular(n, rng);
      EXPECT_LE(p.safety_gap(a, b), 1e-9) << "trial " << trial;
    }
  }
  EXPECT_GT(passed, 10);
}

TEST(Cancellation, Remark512CounterexampleFailsCriterionButIsSafe) {
  const unsigned n = 3;
  WorldSet a = WorldSet::from_strings(n, {"011", "100", "110", "111"});
  WorldSet b = WorldSet::from_strings(n, {"010", "101", "110", "111"});
  auto result = cancellation_criterion(a, b);
  EXPECT_FALSE(result.holds);
  ASSERT_TRUE(result.failing_vector.has_value());
  EXPECT_EQ(result.failing_vector->to_string(n), "***");
  EXPECT_EQ(result.positive_pairs, 0);
  EXPECT_EQ(result.negative_pairs, 2);
  // ... and yet the pair is Pi_m0-safe (Remark 5.12).
  EXPECT_LE(max_gap_grid(a, b), 1e-12);
}

TEST(Cancellation, SoundOnRandomInstances) {
  // Whenever the criterion holds, no product prior attains a positive gap.
  Rng rng(13);
  const unsigned n = 4;
  int held = 0;
  for (int trial = 0; trial < 400 && held < 40; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    if (!cancellation_criterion(a, b).holds) continue;
    ++held;
    for (int i = 0; i < 30; ++i) {
      auto p = ProductDistribution::random(n, rng);
      EXPECT_LE(p.safety_gap(a, b), 1e-10)
          << "A=" << a.to_string() << " B=" << b.to_string();
    }
  }
  EXPECT_GT(held, 10);
}

TEST(Theorem511, MiklauSuciuImpliesCancellation) {
  // Build A on coordinates {0,1} and B on {2,3}, so they share no critical
  // coordinates by construction.
  Rng rng(17);
  const unsigned n = 4;
  int checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const World a_patterns = static_cast<World>(rng.next_bits(4));  // subset of {0,1}^2
    const World b_patterns = static_cast<World>(rng.next_bits(4));
    WorldSet a(n), b(n);
    for (World w = 0; w < 16; ++w) {
      if ((a_patterns >> (w & 3)) & 1) a.insert(w);
      if ((b_patterns >> ((w >> 2) & 3)) & 1) b.insert(w);
    }
    if (!miklau_suciu_independent(a, b)) continue;  // degenerate randomness only
    ++checked;
    EXPECT_TRUE(cancellation_criterion(a, b).holds)
        << "A=" << a.to_string() << " B=" << b.to_string();
  }
  EXPECT_GT(checked, 50);
}

TEST(Theorem511, MonotonicityImpliesCancellation) {
  Rng rng(19);
  const unsigned n = 4;
  int checked = 0;
  for (int trial = 0; trial < 300 && checked < 30; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.3);
    WorldSet b = WorldSet::random(n, rng, 0.3);
    const World mask = static_cast<World>(rng.next_bits(n));
    a = up_closure(a).xor_with(mask);
    b = down_closure(b).xor_with(mask);
    if (!monotonicity_criterion(a, b)) continue;
    ++checked;
    EXPECT_TRUE(cancellation_criterion(a, b).holds)
        << "A=" << a.to_string() << " B=" << b.to_string();
  }
  EXPECT_GT(checked, 10);
}

TEST(BoxNecessary, ViolationYieldsPositiveGapWitness) {
  Rng rng(23);
  const unsigned n = 4;
  int violated = 0;
  for (int trial = 0; trial < 200 && violated < 40; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    auto result = box_necessary_criterion(a, b);
    if (result.holds) continue;
    ++violated;
    ASSERT_TRUE(result.witness.has_value());
    EXPECT_GT(result.witness->safety_gap(a, b), 1e-12)
        << "A=" << a.to_string() << " B=" << b.to_string();
  }
  EXPECT_GT(violated, 10);
}

TEST(BoxNecessary, CancellationImpliesBoxCriterion) {
  // sufficient ⊆ safe ⊆ necessary.
  Rng rng(29);
  const unsigned n = 4;
  int held = 0;
  for (int trial = 0; trial < 600 && held < 40; ++trial) {
    // Mix raw random pairs with monotone-masked pairs (which pass the
    // cancellation criterion by Theorem 5.11) to get enough positives.
    WorldSet a = WorldSet::random(n, rng, 0.4);
    WorldSet b = WorldSet::random(n, rng, 0.4);
    if (trial % 2 == 0) {
      const World mask = static_cast<World>(rng.next_bits(n));
      a = up_closure(a).xor_with(mask);
      b = down_closure(b).xor_with(mask);
    }
    if (!cancellation_criterion(a, b).holds) continue;
    ++held;
    EXPECT_TRUE(box_necessary_criterion(a, b).holds)
        << "A=" << a.to_string() << " B=" << b.to_string();
  }
  EXPECT_GT(held, 10);
}

TEST(BoxNecessary, ExactOnGridGroundTruth) {
  // For n = 3, compare the necessary criterion against grid ground truth:
  // grid-unsafe pairs must violate the criterion's premise direction
  // (criterion holds => grid gap <= 0 cannot be asserted — it is only
  // necessary — but grid gap > 0 must imply criterion may still hold; what
  // MUST hold: criterion violated => grid gap > 0).
  Rng rng(31);
  const unsigned n = 3;
  for (int trial = 0; trial < 60; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    auto result = box_necessary_criterion(a, b);
    if (!result.holds) {
      EXPECT_GT(max_gap_grid(a, b), 0.0)
          << "A=" << a.to_string() << " B=" << b.to_string();
    }
  }
}

TEST(Supermodular, SufficientImpliesSafetyOnIsingPriors) {
  Rng rng(37);
  const unsigned n = 4;
  int held = 0;
  for (int trial = 0; trial < 500 && held < 25; ++trial) {
    WorldSet a = up_closure(WorldSet::random(n, rng, 0.15));
    WorldSet b = down_closure(WorldSet::random(n, rng, 0.15));
    if (rng.next_bool()) std::swap(a, b);
    if (!supermodular_sufficient(a, b)) continue;
    ++held;
    for (int i = 0; i < 10; ++i) {
      auto p = random_log_supermodular(n, rng);
      EXPECT_LE(p.safety_gap(a, b), 1e-9)
          << "A=" << a.to_string() << " B=" << b.to_string();
    }
  }
  EXPECT_GT(held, 10);
}

TEST(Supermodular, Corollary55ImpliesSufficientCriterion) {
  Rng rng(41);
  const unsigned n = 4;
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 30; ++trial) {
    WorldSet a = up_closure(WorldSet::random(n, rng, 0.2));
    WorldSet b = down_closure(WorldSet::random(n, rng, 0.2));
    if (!upset_downset_criterion(a, b)) continue;
    ++checked;
    EXPECT_TRUE(supermodular_sufficient(a, b));
  }
  EXPECT_GT(checked, 10);
}

TEST(Supermodular, NecessaryViolationContradictsSufficient) {
  // The necessary and sufficient criteria can never disagree in the
  // "sufficient says safe, necessary says unsafe" direction.
  Rng rng(43);
  const unsigned n = 4;
  for (int trial = 0; trial < 300; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    if (supermodular_sufficient(a, b)) {
      EXPECT_TRUE(supermodular_necessary(a, b))
          << "A=" << a.to_string() << " B=" << b.to_string();
    }
  }
}

TEST(FourFunctions, PointwiseChecker) {
  // alpha = beta = gamma = delta = uniform satisfies the pointwise condition.
  const unsigned n = 2;
  std::vector<double> u(4, 0.25);
  EXPECT_TRUE(four_functions_pointwise(u, u, u, u, n));
  // gamma = 0 with positive alpha, beta fails.
  std::vector<double> zero(4, 0.0);
  EXPECT_FALSE(four_functions_pointwise(u, u, zero, u, n));
  EXPECT_THROW(four_functions_pointwise(u, u, u, std::vector<double>(3), n),
               std::invalid_argument);
}

TEST(Pipeline, UnrestrictedAlwaysDefinite) {
  // The unrestricted cascade is the engine's Thm. 3.11 stage: always
  // definite, and an Unsafe detail names unrestricted_witness's support.
  Rng rng(47);
  const unsigned n = 4;
  const DecisionEngine engine(n, PriorAssumption::kUnrestricted);
  for (int trial = 0; trial < 100; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    AuditContext ctx;
    const EngineDecision d = engine.decide(a, b, ctx);
    EXPECT_NE(d.verdict, Verdict::kUnknown);
    if (d.verdict == Verdict::kUnsafe) {
      const std::optional<Distribution> w = unrestricted_witness(a, b);
      ASSERT_TRUE(w.has_value());
      EXPECT_GT(w->safety_gap(a, b), 0.0);
      EXPECT_EQ(d.detail, "two-point prior on " + w->support().to_string());
    }
  }
}

// The criterion tables are checked entry by entry: every entry that decides
// a pair must be sound, not only the first one the engine's cascade stops at.

TEST(Pipeline, ProductPipelineSound) {
  Rng rng(53);
  const unsigned n = 3;
  int safe_count = 0, unsafe_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    const double grid_max = max_gap_grid(a, b);
    bool any_safe = false, any_unsafe = false;
    for (const NamedCriterion& entry : product_criteria()) {
      const CriterionOutcome o = entry.test(a, b);
      if (o.verdict == Verdict::kSafe) {
        any_safe = true;
        EXPECT_LE(grid_max, 1e-9) << "criterion=" << entry.name
                                  << " A=" << a.to_string() << " B=" << b.to_string();
      } else if (o.verdict == Verdict::kUnsafe) {
        any_unsafe = true;
        ASSERT_TRUE(o.witness_product.has_value()) << "criterion=" << entry.name;
        EXPECT_GT(o.witness_product->safety_gap(a, b), 0.0) << "criterion=" << entry.name;
        EXPECT_GT(grid_max, 0.0) << "criterion=" << entry.name;
      }
    }
    safe_count += any_safe;
    unsafe_count += any_unsafe;
  }
  EXPECT_GT(safe_count, 10);
  EXPECT_GT(unsafe_count, 10);
}

TEST(Pipeline, SupermodularPipelineSound) {
  Rng rng(59);
  const unsigned n = 4;
  for (int trial = 0; trial < 150; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.4);
    WorldSet b = WorldSet::random(n, rng, 0.4);
    std::vector<const char*> safe_entries;
    for (const NamedCriterion& entry : supermodular_criteria()) {
      const CriterionOutcome o = entry.test(a, b);
      if (o.verdict == Verdict::kSafe) {
        safe_entries.push_back(entry.name);
      } else if (o.verdict == Verdict::kUnsafe) {
        if (o.witness_distribution) {
          EXPECT_TRUE(is_log_supermodular(*o.witness_distribution)) << entry.name;
          EXPECT_GT(o.witness_distribution->safety_gap(a, b), 0.0) << entry.name;
        } else {
          ASSERT_TRUE(o.witness_product.has_value()) << entry.name;
          EXPECT_GT(o.witness_product->safety_gap(a, b), 0.0) << entry.name;
        }
      }
    }
    // One draw of priors per Safe pair, as when only the first entry counted,
    // so the seed replays the same instances.
    if (safe_entries.empty()) continue;
    for (int i = 0; i < 10; ++i) {
      auto p = random_log_supermodular(n, rng);
      for (const char* name : safe_entries) {
        EXPECT_LE(p.safety_gap(a, b), 1e-9) << "criterion=" << name;
      }
    }
  }
}

TEST(Verdict, ToString) {
  EXPECT_EQ(to_string(Verdict::kSafe), "safe");
  EXPECT_EQ(to_string(Verdict::kUnsafe), "unsafe");
  EXPECT_EQ(to_string(Verdict::kUnknown), "unknown");
}

}  // namespace
}  // namespace epi
