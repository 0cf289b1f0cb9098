#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "possibilistic/intervals.h"
#include "possibilistic/knowledge.h"
#include "possibilistic/rectangles.h"
#include "possibilistic/safe.h"

namespace epi {
namespace {

// The Figure 1 reconstruction: 14 x 7 grid, A-complement is a discretized
// ellipse chosen so that the three minimal intervals from omega_1 = (1,1)
// match the paper: (1,1)-(4,4), (1,1)-(5,3) and (1,1)-(6,2).
struct Figure1 {
  GridDomain grid{14, 7};
  FiniteSet a_bar;
  FiniteSet a;
  std::size_t omega1;

  Figure1()
      : a_bar(grid.ellipse(9.0, 4.0, 5.2, 2.9)),
        a(~a_bar),
        omega1(grid.index(1, 1)) {}
};

std::shared_ptr<const RectangleSigma> make_rect_family(const GridDomain& grid) {
  return std::make_shared<RectangleSigma>(grid);
}

TEST(GridDomain, IndexingRoundTrip) {
  GridDomain g(14, 7);
  EXPECT_EQ(g.size(), 98u);
  const std::size_t idx = g.index(5, 3);
  EXPECT_EQ(g.x_of(idx), 5u);
  EXPECT_EQ(g.y_of(idx), 3u);
  EXPECT_THROW(g.index(0, 1), std::out_of_range);
  EXPECT_THROW(g.index(15, 1), std::out_of_range);
}

TEST(GridDomain, RectangleContents) {
  GridDomain g(4, 3);
  FiniteSet r = g.rectangle(2, 1, 3, 2);
  EXPECT_EQ(r.count(), 4u);
  EXPECT_TRUE(r.contains(g.index(2, 1)));
  EXPECT_TRUE(r.contains(g.index(3, 2)));
  EXPECT_FALSE(r.contains(g.index(1, 1)));
  EXPECT_THROW(g.rectangle(3, 1, 2, 2), std::invalid_argument);
}

TEST(RectangleSigma, ContainsExactlyRectangles) {
  GridDomain g(4, 3);
  RectangleSigma sigma(g);
  EXPECT_TRUE(sigma.contains(g.rectangle(1, 1, 4, 3)));
  EXPECT_TRUE(sigma.contains(g.rectangle(2, 2, 2, 2)));
  FiniteSet not_rect = g.rectangle(1, 1, 2, 1) | g.rectangle(1, 2, 1, 2);
  EXPECT_FALSE(sigma.contains(not_rect));
  EXPECT_FALSE(sigma.contains(FiniteSet(g.size())));
}

TEST(RectangleSigma, EnumerationCount) {
  GridDomain g(4, 3);
  RectangleSigma sigma(g);
  // 4*5/2 * 3*4/2 = 10 * 6 = 60 rectangles.
  EXPECT_EQ(sigma.enumerate().size(), 60u);
  EXPECT_TRUE(sigma.is_intersection_closed());
}

TEST(RectangleSigma, IntervalIsBoundingBox) {
  GridDomain g(14, 7);
  RectangleSigma sigma(g);
  auto iv = sigma.interval(g.index(1, 1), g.index(4, 4));
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(*iv, g.rectangle(1, 1, 4, 4));
}

TEST(Figure1, PaperIntervals) {
  // "For omega_1 and omega_2 ... the light-grey rectangle from (1,1) to
  // (4,4); for omega_1 and omega_2' ... from (1,1) to (9,3)."
  Figure1 fig;
  IntervalOracle oracle(make_rect_family(fig.grid), FiniteSet::universe(fig.grid.size()));
  auto iv = oracle.interval(fig.omega1, fig.grid.index(4, 4));
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(*iv, fig.grid.rectangle(1, 1, 4, 4));
  auto iv2 = oracle.interval(fig.omega1, fig.grid.index(9, 3));
  ASSERT_TRUE(iv2.has_value());
  EXPECT_EQ(*iv2, fig.grid.rectangle(1, 1, 9, 3));
}

TEST(Figure1, ThreeMinimalIntervals) {
  // Example 4.9: the three minimal intervals from omega_1 to A-bar are the
  // rectangles (1,1)-(4,4), (1,1)-(5,3) and (1,1)-(6,2).
  Figure1 fig;
  IntervalOracle oracle(make_rect_family(fig.grid), FiniteSet::universe(fig.grid.size()));
  auto minimal = oracle.minimal_intervals(fig.omega1, fig.a_bar);
  ASSERT_EQ(minimal.size(), 3u);
  auto expect_in = [&](const FiniteSet& rect) {
    EXPECT_TRUE(std::find(minimal.begin(), minimal.end(), rect) != minimal.end());
  };
  expect_in(fig.grid.rectangle(1, 1, 4, 4));
  expect_in(fig.grid.rectangle(1, 1, 5, 3));
  expect_in(fig.grid.rectangle(1, 1, 6, 2));
}

TEST(Figure1, DeltaClassesAreTheEllipseCorners) {
  Figure1 fig;
  IntervalOracle oracle(make_rect_family(fig.grid), FiniteSet::universe(fig.grid.size()));
  auto classes = oracle.delta_partition(fig.a_bar, fig.omega1);
  ASSERT_EQ(classes.size(), 3u);
  // With this ellipse each minimal interval meets A-bar in a single corner.
  std::vector<FiniteSet> expected = {
      FiniteSet::singleton(fig.grid.size(), fig.grid.index(4, 4)),
      FiniteSet::singleton(fig.grid.size(), fig.grid.index(5, 3)),
      FiniteSet::singleton(fig.grid.size(), fig.grid.index(6, 2))};
  for (const auto& e : expected) {
    EXPECT_TRUE(std::find(classes.begin(), classes.end(), e) != classes.end());
  }
}

TEST(Figure1, DeltaClassesAreDisjoint) {
  // Proposition 4.10: distinct classes are disjoint.
  Figure1 fig;
  IntervalOracle oracle(make_rect_family(fig.grid), FiniteSet::universe(fig.grid.size()));
  fig.a.visit([&](std::size_t w1) {
    auto classes = oracle.delta_partition(fig.a_bar, w1);
    for (std::size_t i = 0; i < classes.size(); ++i) {
      for (std::size_t j = i + 1; j < classes.size(); ++j) {
        ASSERT_TRUE(classes[i].disjoint_with(classes[j])) << "w1=" << w1;
      }
    }
  });
}

TEST(Figure1, SafeIffBMeetsEveryMinimalInterval) {
  // "A disclosed set B is private, assuming omega* = omega_1, iff B
  // intersects each of these three intervals inside A-bar."
  Figure1 fig;
  FiniteSet c = FiniteSet::singleton(fig.grid.size(), fig.omega1);
  IntervalOracle oracle(make_rect_family(fig.grid), c);

  // B covering all three corners (plus omega_1 so the disclosure is true).
  FiniteSet b_good(fig.grid.size(), {fig.omega1, fig.grid.index(4, 4),
                                     fig.grid.index(5, 3), fig.grid.index(6, 2)});
  EXPECT_TRUE(oracle.safe_minimal_intervals(fig.a, b_good));

  // B missing the (6,2) corner's interval entirely.
  FiniteSet b_bad(fig.grid.size(), {fig.omega1, fig.grid.index(4, 4), fig.grid.index(5, 3)});
  EXPECT_FALSE(oracle.safe_minimal_intervals(fig.a, b_bad));
}

TEST(RectangleFamily, HasTightIntervals) {
  GridDomain g(5, 4);
  IntervalOracle oracle(make_rect_family(g), FiniteSet::universe(g.size()));
  EXPECT_TRUE(oracle.has_tight_intervals());
}

TEST(Remark42, SingleSetFamilyIsNotTight) {
  // Omega = {0,1,2}, Sigma = {Omega}: B1={0,2} and B2={1,2} each protect
  // A={2} but their intersection {2} does not; intervals are not tight and
  // no beta function exists.
  const std::size_t m = 3;
  auto sigma = std::make_shared<ExplicitSigma>(
      std::vector<FiniteSet>{FiniteSet::universe(m)});
  IntervalOracle oracle(sigma, FiniteSet::universe(m));
  EXPECT_FALSE(oracle.has_tight_intervals());
  EXPECT_FALSE(oracle.beta(FiniteSet(m, {2})).has_value());

  auto k = SecondLevelKnowledge::product(FiniteSet::universe(m),
                                         sigma->enumerate());
  FiniteSet a(m, {2});
  FiniteSet b1(m, {0, 2}), b2(m, {1, 2});
  EXPECT_TRUE(safe_possibilistic(k, a, b1));
  EXPECT_TRUE(safe_possibilistic(k, a, b2));
  EXPECT_FALSE(safe_possibilistic(k, a, b1 & b2));
  // ... consistent with Prop. 3.10 because neither B1 nor B2 is K-preserving.
  EXPECT_FALSE(k.is_preserving(b1));
  EXPECT_FALSE(k.is_preserving(b2));
}

TEST(IntervalOracle, RejectsNonClosedFamily) {
  std::vector<FiniteSet> sets = {FiniteSet(4, {0, 1, 2}), FiniteSet(4, {1, 2, 3})};
  auto sigma = std::make_shared<ExplicitSigma>(sets);
  EXPECT_THROW(IntervalOracle(sigma, FiniteSet::universe(4)), std::invalid_argument);
}

// Property: for intersection-closed K = C (x) Sigma, all three privacy tests
// (Def. 3.1 direct, Prop. 4.5 all intervals, Prop. 4.8 minimal intervals)
// agree on random instances.
TEST(IntervalOracle, AgreesWithDefinitionOnRandomClosedFamilies) {
  Rng rng(91);
  int verified = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t m = 6;
    std::vector<FiniteSet> seed;
    for (int i = 0; i < 3; ++i) {
      FiniteSet s = FiniteSet::random(m, rng, 0.5);
      if (!s.is_empty()) seed.push_back(s);
    }
    if (seed.empty()) continue;
    auto sigma = std::make_shared<ExplicitSigma>(
        ExplicitSigma(seed).intersection_closure());
    FiniteSet c = FiniteSet::random(m, rng, 0.8);
    if (c.is_empty()) c.insert(0);
    auto k = SecondLevelKnowledge::product(c, sigma->enumerate());
    if (k.empty()) continue;
    FiniteSet a = FiniteSet::random(m, rng, 0.5);
    FiniteSet b = FiniteSet::random(m, rng, 0.6);

    IntervalOracle oracle(sigma, c);
    const bool direct = safe_possibilistic(k, a, b);
    EXPECT_EQ(direct, oracle.safe_all_intervals(a, b)) << "trial " << trial;
    EXPECT_EQ(direct, oracle.safe_minimal_intervals(a, b)) << "trial " << trial;
    ++verified;
  }
  EXPECT_GT(verified, 50);
}

// Property: on the rectangle family (tight intervals), the beta margin of
// Corollary 4.14 characterizes safety exactly.
TEST(IntervalOracle, BetaCharacterizesSafetyOnRectangles) {
  GridDomain g(5, 4);
  auto sigma = make_rect_family(g);
  IntervalOracle oracle(sigma, FiniteSet::universe(g.size()));
  Rng rng(101);
  FiniteSet a = FiniteSet::random(g.size(), rng, 0.5);
  auto beta = oracle.beta(a);
  ASSERT_TRUE(beta.has_value());

  auto k = SecondLevelKnowledge::product(FiniteSet::universe(g.size()),
                                         sigma->enumerate());
  for (int trial = 0; trial < 40; ++trial) {
    FiniteSet b = FiniteSet::random(g.size(), rng, 0.5);
    bool beta_safe = true;
    (a & b).visit([&](std::size_t w1) {
      if (!(*beta)[w1].subset_of(b)) beta_safe = false;
    });
    EXPECT_EQ(beta_safe, safe_possibilistic(k, a, b)) << "trial " << trial;
  }
}

TEST(IntervalOracle, PreparedAuditMatchesDirect) {
  GridDomain g(6, 4);
  auto sigma = make_rect_family(g);
  IntervalOracle oracle(sigma, FiniteSet::universe(g.size()));
  Rng rng(113);
  FiniteSet a = FiniteSet::random(g.size(), rng, 0.4);
  auto prepared = oracle.prepare(a);
  for (int trial = 0; trial < 30; ++trial) {
    FiniteSet b = FiniteSet::random(g.size(), rng, 0.5);
    EXPECT_EQ(prepared.safe(b), oracle.safe_minimal_intervals(a, b));
  }
}

// The prepared layout is delta_partition's classes as world ids, with an
// inverted index that lists, per world, exactly the classes holding it.
TEST(IntervalOracle, PreparedLayoutMatchesDeltaPartitionAndInvertsIt) {
  const Figure1 fig;
  IntervalOracle oracle(make_rect_family(fig.grid),
                        FiniteSet::universe(fig.grid.size()));
  const IntervalOracle::PreparedAudit prepared = oracle.prepare(fig.a);
  const std::size_t m = fig.grid.size();
  std::vector<std::vector<std::uint32_t>> holders(m);
  std::size_t total = 0;
  for (std::size_t w1 = 0; w1 < m; ++w1) {
    const std::vector<FiniteSet> want = oracle.delta_partition(fig.a_bar, w1);
    const auto [first, last] = prepared.class_range(w1);
    ASSERT_EQ(last - first, fig.a.contains(w1) ? want.size() : 0u)
        << "w1=" << w1;
    for (std::uint32_t c = first; c < last; ++c) {
      EXPECT_EQ(prepared.class_owner(c), w1);
      FiniteSet got(m);
      for (const std::uint32_t e : prepared.class_worlds(c)) {
        got.insert(e);
        holders[e].push_back(c);
      }
      EXPECT_EQ(got, want[c - first]) << "w1=" << w1 << " class " << c - first;
      EXPECT_EQ(got.count(), prepared.class_worlds(c).size());
    }
    total += last - first;
  }
  EXPECT_EQ(prepared.class_count(), total);
  EXPECT_GT(total, 0u);
  for (std::size_t e = 0; e < m; ++e) {
    const auto containing = prepared.classes_containing(e);
    EXPECT_EQ(std::vector<std::uint32_t>(containing.begin(), containing.end()),
              holders[e])
        << "e=" << e;
  }
}

// The incremental Corollary 4.12 index must agree with the full
// PreparedAudit rescan at every step of a shrinking chain — the streaming
// session shape — including its O(1) active_empty pinning signal.
TEST(IncrementalSafe, MatchesPreparedSafeOnShrinkingChains) {
  GridDomain g(6, 4);
  auto sigma = make_rect_family(g);
  IntervalOracle oracle(sigma, FiniteSet::universe(g.size()));
  Rng rng(127);
  for (int chain = 0; chain < 20; ++chain) {
    const FiniteSet a = FiniteSet::random(g.size(), rng, 0.3);
    auto prepared =
        std::make_shared<const IntervalOracle::PreparedAudit>(oracle.prepare(a));
    IntervalOracle::IncrementalSafe index(prepared);
    EXPECT_FALSE(index.initialized());
    FiniteSet s = FiniteSet::universe(g.size());
    index.reset(s);
    for (int step = 0; step < 15; ++step) {
      s = s & FiniteSet::random(g.size(), rng, 0.8);
      ASSERT_TRUE(index.shrink_to(s)) << "chain " << chain << " step " << step;
      EXPECT_EQ(index.safe(), prepared->safe(s))
          << "chain " << chain << " step " << step;
      EXPECT_EQ(index.active_empty(), (a & s).is_empty())
          << "chain " << chain << " step " << step;
    }
  }
}

// shrink_to refuses a non-subset without touching the counters; reset()
// re-derives them for the new set, matching the rescan again.
TEST(IncrementalSafe, RejectsNonSubsetAndRecoversViaReset) {
  GridDomain g(5, 3);
  auto sigma = make_rect_family(g);
  IntervalOracle oracle(sigma, FiniteSet::universe(g.size()));
  Rng rng(131);
  const FiniteSet a = FiniteSet::random(g.size(), rng, 0.4);
  auto prepared =
      std::make_shared<const IntervalOracle::PreparedAudit>(oracle.prepare(a));
  IntervalOracle::IncrementalSafe index(prepared);

  const FiniteSet small = FiniteSet::random(g.size(), rng, 0.3);
  index.reset(small);
  const bool was_safe = index.safe();

  FiniteSet grown = small;
  std::size_t extra = g.size();
  for (std::size_t e = 0; e < g.size(); ++e) {
    if (!small.contains(e)) {
      extra = e;
      break;
    }
  }
  ASSERT_LT(extra, g.size());
  grown.insert(extra);
  EXPECT_FALSE(index.shrink_to(grown));  // not a subset: refused
  EXPECT_EQ(index.safe(), was_safe);     // untouched
  EXPECT_EQ(index.current(), small);

  index.reset(grown);
  EXPECT_EQ(index.safe(), prepared->safe(grown));
}

TEST(GridDomain, RenderAscii) {
  GridDomain g(3, 2);
  FiniteSet s(g.size(), {g.index(1, 1), g.index(3, 2)});
  EXPECT_EQ(g.render(s), "#..\n..#\n");
}

}  // namespace
}  // namespace epi
