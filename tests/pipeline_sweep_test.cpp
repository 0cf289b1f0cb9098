// Parameterized cross-validation sweep: every entry of the combinatorial
// criterion tables, the numeric optimizer and sampled priors must agree
// across dimensions and set densities. This is the suite that would catch a
// soundness regression in any single criterion.
#include <gtest/gtest.h>

#include "criteria/pipeline.h"
#include "criteria/unconditional.h"
#include "optimize/coordinate_ascent.h"
#include "probabilistic/modularity.h"

namespace epi {
namespace {

struct SweepParam {
  unsigned n;
  double density;
};

/// Every entry of `table` that decides (A, B), in table order. The sweep
/// judges each of them, not only the first one the engine's cascade stops
/// at (every n here is under the box tables' max_n).
std::vector<std::pair<const char*, CriterionOutcome>> definite_entries(
    const std::vector<NamedCriterion>& table, const WorldSet& a,
    const WorldSet& b) {
  std::vector<std::pair<const char*, CriterionOutcome>> decided;
  for (const NamedCriterion& entry : table) {
    CriterionOutcome o = entry.test(a, b);
    if (o.verdict != Verdict::kUnknown) decided.emplace_back(entry.name, std::move(o));
  }
  return decided;
}

bool any_says(const std::vector<std::pair<const char*, CriterionOutcome>>& decided,
              Verdict verdict) {
  for (const auto& [name, o] : decided) {
    if (o.verdict == verdict) return true;
  }
  return false;
}

class PipelineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PipelineSweep, ProductPipelineNeverContradictsOptimizer) {
  const auto [n, density] = GetParam();
  Rng rng(1000 + n * 31 + static_cast<unsigned>(density * 100));
  int definite = 0;
  for (int t = 0; t < 60; ++t) {
    WorldSet a = WorldSet::random(n, rng, density);
    WorldSet b = WorldSet::random(n, rng, density);
    const auto decided = definite_entries(product_criteria(), a, b);
    if (decided.empty()) continue;
    ++definite;
    AscentOptions opts;
    opts.seed = 5000 + t;
    const double gap = maximize_product_gap(a, b, opts).max_gap;
    for (const auto& [name, o] : decided) {
      if (o.verdict == Verdict::kSafe) {
        EXPECT_LE(gap, 1e-9) << "criterion=" << name << " A=" << a.to_string()
                             << " B=" << b.to_string();
      } else {
        ASSERT_TRUE(o.witness_product.has_value()) << "criterion=" << name;
        EXPECT_GT(o.witness_product->safety_gap(a, b), 0.0)
            << "criterion=" << name;
      }
    }
  }
  EXPECT_GT(definite, 10);
}

TEST_P(PipelineSweep, SupermodularVerdictsConsistentWithSampledIsingPriors) {
  const auto [n, density] = GetParam();
  Rng rng(2000 + n * 37 + static_cast<unsigned>(density * 100));
  for (int t = 0; t < 40; ++t) {
    WorldSet a = WorldSet::random(n, rng, density);
    WorldSet b = WorldSet::random(n, rng, density);
    const auto decided = definite_entries(supermodular_criteria(), a, b);
    // One draw of priors per Safe pair, checked against every Safe entry.
    if (!any_says(decided, Verdict::kSafe)) continue;
    for (int i = 0; i < 8; ++i) {
      const double gap = random_log_supermodular(n, rng).safety_gap(a, b);
      for (const auto& [name, o] : decided) {
        if (o.verdict == Verdict::kSafe) {
          EXPECT_LE(gap, 1e-9) << "criterion=" << name;
        }
      }
    }
  }
}

TEST_P(PipelineSweep, UnsafeVerdictsAgreeAcrossFamilies) {
  // Family inclusion Pi_m0 ⊆ Pi_m+ ⊆ all: unsafe-for-smaller implies
  // unsafe-for-larger can NOT be asserted (inclusion points the other way);
  // what must hold: safe under a LARGER family forces safe under smaller.
  const auto [n, density] = GetParam();
  Rng rng(3000 + n * 41 + static_cast<unsigned>(density * 100));
  for (int t = 0; t < 60; ++t) {
    WorldSet a = WorldSet::random(n, rng, density);
    WorldSet b = WorldSet::random(n, rng, density);
    const auto supermodular = definite_entries(supermodular_criteria(), a, b);
    const auto product = definite_entries(product_criteria(), a, b);
    if (unconditionally_safe(a, b)) {  // Thm. 3.11: safe for every prior
      EXPECT_FALSE(any_says(supermodular, Verdict::kUnsafe));
      EXPECT_FALSE(any_says(product, Verdict::kUnsafe));
    }
    if (any_says(supermodular, Verdict::kSafe)) {
      EXPECT_FALSE(any_says(product, Verdict::kUnsafe))
          << " A=" << a.to_string() << " B=" << b.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Values(SweepParam{2, 0.5}, SweepParam{3, 0.3}, SweepParam{3, 0.5},
                      SweepParam{4, 0.2}, SweepParam{4, 0.5}, SweepParam{5, 0.4}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "_d" +
             std::to_string(static_cast<int>(info.param.density * 100));
    });

}  // namespace
}  // namespace epi
