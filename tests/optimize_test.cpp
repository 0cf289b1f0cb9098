#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "criteria/pipeline.h"
#include "engine/decision_engine.h"
#include "optimize/coordinate_ascent.h"
#include "optimize/emptiness.h"
#include "probabilistic/modularity.h"
#include "probabilistic/safe.h"

namespace epi {
namespace {

double max_gap_grid(const WorldSet& a, const WorldSet& b, int steps = 24) {
  const unsigned n = a.n();
  std::vector<double> p(n, 0.0);
  double best = -1.0;
  std::size_t total = 1;
  for (unsigned i = 0; i < n; ++i) total *= steps + 1;
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

TEST(CoordinateAscent, MatchesGridGroundTruth) {
  Rng rng(61);
  const unsigned n = 3;
  for (int trial = 0; trial < 40; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    const double grid = max_gap_grid(a, b);
    AscentOptions opts;
    opts.seed = 1000 + trial;
    const AscentResult r = maximize_product_gap(a, b, opts);
    // Ascent must match or beat the grid (grid is a lower bound on the max).
    EXPECT_GE(r.max_gap, grid - 1e-6)
        << "A=" << a.to_string() << " B=" << b.to_string();
    // And its claimed maximum must be attained by its own witness.
    EXPECT_NEAR(ProductDistribution(r.argmax).safety_gap(a, b), r.max_gap, 1e-12);
  }
}

TEST(CoordinateAscent, ZeroGapForIndependentPair) {
  const unsigned n = 4;
  WorldSet a(n), b(n);
  for (World w = 0; w < 16; ++w) {
    if (world_bit(w, 0)) a.insert(w);
    if (world_bit(w, 2)) b.insert(w);
  }
  const AscentResult r = maximize_product_gap(a, b);
  EXPECT_NEAR(r.max_gap, 0.0, 1e-9);
}

// The optimizer as the engine's coordinate-ascent stage reads it: a maximum
// above 1e-9 is an Unsafe verdict with the argmax as its witness, anything
// else a numeric Safe.
constexpr double kUnsafeGap = 1e-9;

TEST(CoordinateAscent, ThresholdedMaximumSound) {
  Rng rng(67);
  const unsigned n = 3;
  for (int trial = 0; trial < 40; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    const AscentResult r = maximize_product_gap(a, b);
    const double grid = max_gap_grid(a, b);
    if (r.max_gap <= kUnsafeGap) {
      EXPECT_LE(grid, 1e-6);
    } else {
      ASSERT_FALSE(r.argmax.empty());
      EXPECT_GT(ProductDistribution(r.argmax).safety_gap(a, b), 0.0);
    }
  }
}

TEST(CoordinateAscent, AgreesWithCombinatorialPipeline) {
  // Wherever a criterion-table entry is definite, the optimizer must agree.
  Rng rng(71);
  const unsigned n = 4;
  for (int trial = 0; trial < 60; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.4);
    WorldSet b = WorldSet::random(n, rng, 0.4);
    std::optional<double> gap;  // one optimizer run per decided pair
    for (const NamedCriterion& entry : product_criteria()) {
      const Verdict verdict = entry.test(a, b).verdict;
      if (verdict == Verdict::kUnknown) continue;
      if (!gap) gap = maximize_product_gap(a, b).max_gap;
      const Verdict numeric = *gap > kUnsafeGap ? Verdict::kUnsafe : Verdict::kSafe;
      EXPECT_EQ(numeric, verdict)
          << "criterion=" << entry.name << " gap=" << *gap
          << " A=" << a.to_string() << " B=" << b.to_string();
    }
  }
}

TEST(SimplexProjection, BasicProperties) {
  auto p = project_to_simplex({0.5, 0.5, 2.0});
  double sum = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // A point already on the simplex is fixed.
  auto q = project_to_simplex({0.2, 0.3, 0.5});
  EXPECT_NEAR(q[0], 0.2, 1e-12);
  EXPECT_NEAR(q[1], 0.3, 1e-12);
  EXPECT_NEAR(q[2], 0.5, 1e-12);
  // Heavily negative coordinates clamp to zero.
  auto r = project_to_simplex({-5.0, 1.0, 1.0});
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1] + r[2], 1.0, 1e-12);
}

TEST(Emptiness, UnconstrainedMatchesTheorem311) {
  Rng rng(73);
  const unsigned n = 3;
  const AlgebraicFamily family = unconstrained_family_in_weights(n);
  int unsafe_seen = 0;
  for (int trial = 0; trial < 25; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    EmptinessOptions opts;
    opts.seed = 4000 + trial;
    const EmptinessSearchResult r = search_violating_distribution(family, a, b, opts);
    if (safe_unrestricted_prob(a, b)) {
      EXPECT_FALSE(r.found) << "A=" << a.to_string() << " B=" << b.to_string();
    } else {
      // Theorem 3.11 unsafe: the search should find a witness.
      EXPECT_TRUE(r.found) << "A=" << a.to_string() << " B=" << b.to_string();
      if (r.found) {
        ++unsafe_seen;
        EXPECT_GT(r.witness->safety_gap(a, b), 0.0);
      }
    }
  }
  EXPECT_GT(unsafe_seen, 5);
}

TEST(Emptiness, SupermodularWitnessesAreSupermodularAndViolating) {
  Rng rng(79);
  const unsigned n = 3;
  const AlgebraicFamily family = supermodular_family_in_weights(n);
  int found = 0;
  for (int trial = 0; trial < 15 && found < 5; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    EmptinessOptions opts;
    opts.seed = 5000 + trial;
    const EmptinessSearchResult r = search_violating_distribution(family, a, b, opts);
    if (!r.found) continue;
    ++found;
    EXPECT_GT(r.witness->safety_gap(a, b), 0.0);
    // Feasibility tolerance allows slight constraint slack.
    EXPECT_TRUE(is_log_supermodular(*r.witness, 1e-4));
  }
  EXPECT_GT(found, 0);
}

TEST(ProductEngine, SoundAgainstGrid) {
  Rng rng(83);
  const unsigned n = 3;
  // Skip the SOS stage here to keep the test fast; certificates are
  // exercised separately in sos_test.cpp.
  AuditorOptions options;
  options.enable_sos = false;
  const DecisionEngine engine(n, PriorAssumption::kProduct, options);
  int certified = 0;
  for (int trial = 0; trial < 25; ++trial) {
    WorldSet a = WorldSet::random(n, rng, 0.5);
    WorldSet b = WorldSet::random(n, rng, 0.5);
    AuditContext ctx;
    const EngineDecision d = engine.decide(a, b, ctx);
    const double grid = max_gap_grid(a, b);
    if (d.verdict == Verdict::kSafe) {
      EXPECT_LE(grid, 1e-6) << "method=" << d.method;
    } else {
      ASSERT_TRUE(d.witness_product.has_value());
      EXPECT_GT(d.witness_product->safety_gap(a, b), 0.0);
    }
    certified += d.certified;
  }
  EXPECT_GT(certified, 10);
}

}  // namespace
}  // namespace epi
