// Tests for the relevant-coordinate projection (Section 6's N-vs-2^n
// argument) and its integration into the product-prior DecisionEngine,
// including the engine's witness lift.
#include <gtest/gtest.h>

#include "criteria/projection.h"
#include "engine/decision_engine.h"
#include "optimize/coordinate_ascent.h"
#include "probabilistic/product.h"

namespace epi {
namespace {

WorldSet cylinder(unsigned n, unsigned coord, bool value) {
  WorldSet s(n);
  for (World w = 0; w < (World{1} << n); ++w) {
    if (world_bit(w, coord) == value) s.insert(w);
  }
  return s;
}

TEST(Projection, KeepsOnlyCriticalCoordinates) {
  const unsigned n = 5;
  // A depends on coordinate 1, B on coordinate 3.
  WorldSet a = cylinder(n, 1, true);
  WorldSet b = cylinder(n, 3, true);
  ProjectedPair p = project_to_critical(a, b);
  EXPECT_EQ(p.kept_coordinates, (std::vector<unsigned>{1, 3}));
  EXPECT_EQ(p.a.n(), 2u);
  EXPECT_EQ(p.original_n(), n);
  // Projected sets are the single-coordinate cylinders in the new space.
  EXPECT_EQ(p.a, cylinder(2, 0, true));
  EXPECT_EQ(p.b, cylinder(2, 1, true));
}

TEST(Projection, MembershipPreserved) {
  Rng rng(3);
  const unsigned n = 5;
  for (int t = 0; t < 20; ++t) {
    // Build sets depending only on coordinates {0, 2}.
    const World a_patterns = static_cast<World>(rng.next_bits(4));
    const World b_patterns = static_cast<World>(rng.next_bits(4));
    WorldSet a(n), b(n);
    for (World w = 0; w < (World{1} << n); ++w) {
      const unsigned code = world_bit(w, 0) | (world_bit(w, 2) << 1);
      if ((a_patterns >> code) & 1) a.insert(w);
      if ((b_patterns >> code) & 1) b.insert(w);
    }
    ProjectedPair p = project_to_critical(a, b);
    EXPECT_LE(p.kept_coordinates.size(), 2u);
    for (World w = 0; w < (World{1} << n); ++w) {
      EXPECT_EQ(a.contains(w), p.a.contains(compress_world(p, w)));
      EXPECT_EQ(b.contains(w), p.b.contains(compress_world(p, w)));
    }
  }
}

TEST(Projection, LiftCompressRoundTrip) {
  const unsigned n = 6;
  WorldSet a = cylinder(n, 2, true) & cylinder(n, 4, false);
  WorldSet b = cylinder(n, 4, true);
  ProjectedPair p = project_to_critical(a, b);
  for (World w = 0; w < (World{1} << p.a.n()); ++w) {
    EXPECT_EQ(compress_world(p, p.lift(w)), w);
  }
}

TEST(Projection, TrivialSetsKeepOneCoordinate) {
  const unsigned n = 4;
  ProjectedPair p = project_to_critical(WorldSet(n), WorldSet::universe(n));
  EXPECT_EQ(p.kept_coordinates.size(), 1u);
  EXPECT_TRUE(p.a.is_empty());
  EXPECT_TRUE(p.b.is_universe());
}

TEST(Projection, GapInvariantUnderProjection) {
  // The product-prior safety gap of the projected pair (with projected
  // parameters) equals the original gap when irrelevant parameters are
  // arbitrary — the invariance the stage-0 reduction relies on.
  Rng rng(7);
  const unsigned n = 5;
  for (int t = 0; t < 20; ++t) {
    const World a_patterns = static_cast<World>(rng.next_bits(4));
    const World b_patterns = static_cast<World>(rng.next_bits(4));
    WorldSet a(n), b(n);
    for (World w = 0; w < (World{1} << n); ++w) {
      const unsigned code = world_bit(w, 1) | (world_bit(w, 3) << 1);
      if ((a_patterns >> code) & 1) a.insert(w);
      if ((b_patterns >> code) & 1) b.insert(w);
    }
    ProjectedPair p = project_to_critical(a, b);
    auto full = ProductDistribution::random(n, rng);
    std::vector<double> reduced_params;
    for (unsigned kept : p.kept_coordinates) reduced_params.push_back(full.param(kept));
    if (reduced_params.empty()) continue;
    ProductDistribution reduced(reduced_params);
    EXPECT_NEAR(full.safety_gap(a, b), reduced.safety_gap(p.a, p.b), 1e-10);
  }
}

/// The product-prior DecisionEngine with the SOS stage off: these tests
/// check projection and witness lifting, not certificates.
DecisionEngine product_engine(unsigned n) {
  AuditorOptions options;
  options.enable_sos = false;
  return DecisionEngine(n, PriorAssumption::kProduct, options);
}

TEST(Projection, EngineUsesProjectionAndLiftsWitness) {
  // A = B = "coordinate 2 present" inside a 6-coordinate space: the decision
  // should project to 1 coordinate and still return a valid lifted witness.
  const unsigned n = 6;
  WorldSet a = cylinder(n, 2, true);
  AuditContext ctx;
  const EngineDecision d = product_engine(n).decide(a, a, ctx);
  EXPECT_EQ(d.verdict, Verdict::kUnsafe);
  EXPECT_NE(d.method.find("projected[1/6]"), std::string::npos) << d.method;
  ASSERT_TRUE(d.witness_product.has_value());
  EXPECT_EQ(d.witness_product->n(), n);
  EXPECT_GT(d.witness_product->safety_gap(a, a), 0.0);
}

TEST(Projection, EngineAgreesWithUnprojectedOnRandomPairs) {
  Rng rng(11);
  const unsigned n = 5;
  const DecisionEngine engine = product_engine(n);
  for (int t = 0; t < 25; ++t) {
    // Sets over a random subset of coordinates.
    const World a_patterns = static_cast<World>(rng.next_bits(4));
    const World b_patterns = static_cast<World>(rng.next_bits(4));
    WorldSet a(n), b(n);
    for (World w = 0; w < (World{1} << n); ++w) {
      const unsigned code = world_bit(w, 0) | (world_bit(w, 4) << 1);
      if ((a_patterns >> code) & 1) a.insert(w);
      if ((b_patterns >> code) & 1) b.insert(w);
    }
    AuditContext ctx;
    const EngineDecision with_projection = engine.decide(a, b, ctx);
    // Ground truth on the full space via the optimizer alone.
    AscentOptions opts;
    opts.seed = 2200 + t;
    const double gap = maximize_product_gap(a, b, opts).max_gap;
    if (with_projection.verdict == Verdict::kSafe) {
      EXPECT_LE(gap, 1e-9);
    } else {
      ASSERT_TRUE(with_projection.witness_product.has_value());
      EXPECT_GT(with_projection.witness_product->safety_gap(a, b), 0.0);
    }
  }
}

}  // namespace
}  // namespace epi
