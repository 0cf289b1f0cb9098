// Tests for the subcube knowledge family and its auditor integration.
#include <gtest/gtest.h>

#include <memory>

#include "core/auditor.h"
#include "obs/metrics.h"
#include "possibilistic/intervals.h"
#include "possibilistic/knowledge.h"
#include "possibilistic/safe.h"
#include "possibilistic/subcubes.h"
#include "worlds/finite_set.h"

namespace epi {
namespace {

TEST(SubcubeSigma, BoxContents) {
  SubcubeSigma sigma(3);
  const FiniteSet full = sigma.box(MatchVector::from_string("***"));
  EXPECT_TRUE(full.is_universe());
  const FiniteSet point = sigma.box(MatchVector::from_string("101"));
  EXPECT_EQ(point.count(), 1u);
  EXPECT_TRUE(point.contains(world_from_string("101")));
  const FiniteSet edge = sigma.box(MatchVector::from_string("1*0"));
  EXPECT_EQ(edge.count(), 2u);
}

TEST(SubcubeSigma, ContainsExactlySubcubes) {
  SubcubeSigma sigma(3);
  EXPECT_TRUE(sigma.contains(sigma.box(MatchVector::from_string("0**"))));
  EXPECT_TRUE(sigma.contains(FiniteSet::singleton(8, 5)));
  // {000, 011} agrees on no pattern of a 2-element subcube (differs in two
  // coordinates) — not a subcube.
  FiniteSet not_cube(8, {0, 6});
  EXPECT_FALSE(sigma.contains(not_cube));
  EXPECT_FALSE(sigma.contains(FiniteSet(8)));
}

TEST(SubcubeSigma, EnumerationCountsThreePowN) {
  SubcubeSigma sigma(3);
  // 3^3 = 27 match vectors, with duplicates impossible (distinct boxes).
  EXPECT_EQ(sigma.enumerate().size(), 27u);
}

TEST(SubcubeSigma, IntervalIsBoxOfMatch) {
  // The Section 4 / Section 5 bridge: I(w1, w2) = Box(Match(w1, w2)).
  SubcubeSigma sigma(4);
  Rng rng(3);
  for (int t = 0; t < 40; ++t) {
    const World u = static_cast<World>(rng.next_bits(4));
    const World v = static_cast<World>(rng.next_bits(4));
    const auto iv = sigma.interval(u, v);
    ASSERT_TRUE(iv.has_value());
    EXPECT_EQ(*iv, sigma.box(match(u, v)));
    // Smallest subcube containing both: every family member containing both
    // contains the interval.
    for (const FiniteSet& s : sigma.enumerate()) {
      if (s.contains(u) && s.contains(v)) {
        EXPECT_TRUE(iv->subset_of(s));
      }
    }
  }
}

TEST(SubcubeSigma, HasTightIntervals) {
  auto sigma = std::make_shared<SubcubeSigma>(3);
  IntervalOracle oracle(sigma, FiniteSet::universe(8));
  EXPECT_TRUE(oracle.has_tight_intervals());
  EXPECT_TRUE(oracle.beta(FiniteSet(8, {1, 2, 7})).has_value());
}

TEST(SubcubeSigma, OracleMatchesDefinitionOnRandomPairs) {
  auto sigma = std::make_shared<SubcubeSigma>(3);
  IntervalOracle oracle(sigma, FiniteSet::universe(8));
  auto k = SecondLevelKnowledge::product(FiniteSet::universe(8),
                                         sigma->enumerate());
  Rng rng(7);
  for (int t = 0; t < 60; ++t) {
    FiniteSet a = FiniteSet::random(8, rng, 0.5);
    FiniteSet b = FiniteSet::random(8, rng, 0.5);
    EXPECT_EQ(oracle.safe_minimal_intervals(a, b), safe_possibilistic(k, a, b))
        << "A=" << a.to_string() << " B=" << b.to_string();
  }
}

// The closed-form Delta classes (SubcubeSigma::tight_delta_classes) against
// the generic minimal-interval scan over the very same family given as an
// explicit list of its 3^n subcubes: identical classes in identical order,
// from delta_partition and from prepare, for every w1 of the universe.
void expect_generic_classes(const IntervalOracle& closed,
                            const IntervalOracle& generic, const FiniteSet& a) {
  const FiniteSet outside_a = ~a;
  const IntervalOracle::PreparedAudit prepared_closed = closed.prepare(a);
  const IntervalOracle::PreparedAudit prepared_generic = generic.prepare(a);
  EXPECT_EQ(prepared_closed.class_count(), prepared_generic.class_count());
  for (std::size_t w1 = 0; w1 < a.universe_size(); ++w1) {
    EXPECT_EQ(closed.delta_partition(outside_a, w1),
              generic.delta_partition(outside_a, w1))
        << "A=" << a.to_string() << " C=" << closed.c().to_string()
        << " w1=" << w1;
    EXPECT_EQ(prepared_closed.classes(w1), prepared_generic.classes(w1))
        << "A=" << a.to_string() << " C=" << closed.c().to_string()
        << " w1=" << w1;
  }
}

TEST(SubcubeSigma, ClosedFormDeltaClassesMatchGenericScanEverywhereSmall) {
  for (unsigned n = 1; n <= 3; ++n) {
    auto sigma = std::make_shared<SubcubeSigma>(n);
    auto explicit_sigma = std::make_shared<ExplicitSigma>(sigma->enumerate());
    const std::size_t m = sigma->universe_size();
    ASSERT_TRUE(sigma->tight_delta_classes(0, FiniteSet::universe(m)));
    ASSERT_FALSE(explicit_sigma->tight_delta_classes(0, FiniteSet::universe(m)));
    const IntervalOracle closed(sigma, FiniteSet::universe(m));
    const IntervalOracle generic(explicit_sigma, FiniteSet::universe(m));
    for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
      FiniteSet a(m);
      for (std::size_t e = 0; e < m; ++e) {
        if ((mask >> e) & 1) a.insert(e);
      }
      expect_generic_classes(closed, generic, a);
    }
  }
}

TEST(SubcubeSigma, ClosedFormDeltaClassesMatchGenericScanOnRandomAandC) {
  // 200 random (A, C) pairs: per n, 5 auditor sets C with 10 queries A each
  // (the generic oracle's constructor rescans all 3^n sets for closure).
  Rng rng(2008);
  for (unsigned n = 4; n <= 7; ++n) {
    auto sigma = std::make_shared<SubcubeSigma>(n);
    auto explicit_sigma = std::make_shared<ExplicitSigma>(sigma->enumerate());
    const std::size_t m = sigma->universe_size();
    for (int c_trial = 0; c_trial < 5; ++c_trial) {
      const FiniteSet c = FiniteSet::random(m, rng, 0.7);
      const IntervalOracle closed(sigma, c);
      const IntervalOracle generic(explicit_sigma, c);
      for (int a_trial = 0; a_trial < 10; ++a_trial) {
        expect_generic_classes(closed, generic, FiniteSet::random(m, rng, 0.5));
      }
    }
  }
}

TEST(SubcubeSigma, PreparedAuditLeavesTheIntervalMemoAlone) {
  auto sigma = std::make_shared<SubcubeSigma>(6);
  const IntervalOracle oracle(sigma, FiniteSet::universe(64));
  obs::Counter& lookups =
      obs::process_metrics().counter("oracle.interval.lookups");
  const std::int64_t before = lookups.value();
  Rng rng(5);
  const FiniteSet a = FiniteSet::random(64, rng, 0.5);
  const FiniteSet b = FiniteSet::random(64, rng, 0.5);
  EXPECT_EQ(oracle.prepare(a).safe(b), oracle.safe_minimal_intervals(a, b));
  EXPECT_EQ(lookups.value(), before);
}

TEST(SubcubeAuditor, ImplicationSafeDirectUnsafe) {
  RecordUniverse u;
  u.add("r1");
  u.add("r2");
  InMemoryDatabase db(u);
  db.insert("r1");
  db.insert("r2");
  AuditLog log;
  log.record("alice", "r1 -> r2", db);
  log.record("mallory", "r1", db);
  Auditor auditor(u, PriorAssumption::kSubcubeKnowledge);
  const AuditReport report = auditor.audit(log, "r1");
  // An agent who already knows r2's value gains nothing about r1 from the
  // implication? Knowing r2=0 plus "r1 -> r2" pins r1 = 0 — but that asserts
  // NOT A, which epistemic privacy does not protect. Knowing r2=1 makes the
  // implication vacuous. So the implication stays safe:
  EXPECT_EQ(report.per_disclosure[0].verdict, Verdict::kSafe);
  EXPECT_EQ(report.per_disclosure[0].method, "subcube-intervals(prepared)");
  EXPECT_TRUE(report.per_disclosure[0].certified);
  // The direct answer pins A for the empty-knowledge agent: unsafe.
  EXPECT_EQ(report.per_disclosure[1].verdict, Verdict::kUnsafe);
}

TEST(SubcubeAuditor, AlwaysDefinite) {
  RecordUniverse u;
  u.add("a");
  u.add("b");
  u.add("c");
  Auditor auditor(u, PriorAssumption::kSubcubeKnowledge);
  Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    WorldSet a = WorldSet::random(3, rng, 0.5);
    WorldSet b = WorldSet::random(3, rng, 0.5);
    const AuditFinding f = auditor.audit_sets(a, b);
    EXPECT_NE(f.verdict, Verdict::kUnknown);
    EXPECT_TRUE(f.certified);
  }
}

TEST(SubcubeAuditor, DiffersFromProductAssumption) {
  // The subcube (possibilistic) and product (probabilistic) assumptions are
  // genuinely different: find a pair where verdicts diverge.
  RecordUniverse u;
  u.add("a");
  u.add("b");
  AuditorOptions opts;
  opts.enable_sos = false;
  Auditor subcube(u, PriorAssumption::kSubcubeKnowledge, opts);
  Auditor product(u, PriorAssumption::kProduct, opts);
  Rng rng(13);
  int diverged = 0;
  for (int t = 0; t < 100; ++t) {
    WorldSet a = WorldSet::random(2, rng, 0.5);
    WorldSet b = WorldSet::random(2, rng, 0.5);
    if (subcube.audit_sets(a, b).verdict != product.audit_sets(a, b).verdict) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0);
}

TEST(SubcubeAuditor, NameString) {
  EXPECT_EQ(to_string(PriorAssumption::kSubcubeKnowledge), "subcube-knowledge");
}

}  // namespace
}  // namespace epi
