// Experiment E8 (DESIGN.md): the log-supermodular envelope of Section 5.
//
// Paper claims measured:
//  * Cor. 5.5 / Prop. 5.4: a "no" answer to a monotone query always protects
//    a "yes" answer to another monotone query against every Pi_m+ prior —
//    no random Ising prior may attain a positive gap on such pairs;
//  * Prop. 5.2 is constructive in the contrapositive: whenever the necessary
//    criterion fails, the 4-point sublattice prior is log-supermodular and
//    gains confidence — we report the observed witness gaps;
//  * the necessary/sufficient envelope: how often each criterion decides on
//    random instances (the gap between them is the Unknown zone).
#include <algorithm>
#include <cstdio>

#include "criteria/monotonicity.h"
#include "criteria/supermodular.h"
#include "engine/decision_engine.h"
#include "probabilistic/modularity.h"
#include "worlds/monotone.h"

using namespace epi;

int main() {
  std::printf("=== E8: log-supermodular criteria (Prop. 5.2 / 5.4 / Cor. 5.5) ===\n\n");
  Rng rng(888);
  const unsigned n = 4;

  // Corollary 5.5 on random monotone pairs.
  int monotone_pairs = 0, sufficient_hits = 0, falsified = 0;
  for (int t = 0; t < 400; ++t) {
    WorldSet a = up_closure(WorldSet::random(n, rng, 0.2));
    WorldSet b = down_closure(WorldSet::random(n, rng, 0.2));
    if (!upset_downset_criterion(a, b)) continue;
    ++monotone_pairs;
    sufficient_hits += supermodular_sufficient(a, b);
    for (int i = 0; i < 25; ++i) {
      if (random_log_supermodular(n, rng).safety_gap(a, b) > 1e-9) ++falsified;
    }
  }
  std::printf("Cor. 5.5 (up-set A, down-set B), %d pairs:\n", monotone_pairs);
  std::printf("  Prop. 5.4 sufficient criterion fires: %d/%d\n", sufficient_hits,
              monotone_pairs);
  std::printf("  random Ising priors violating safety: %d (paper: 0)\n\n", falsified);

  // Prop. 5.2 witnesses on random instances.
  int witnesses = 0, valid = 0;
  double min_gap = 1.0, max_gap = 0.0, sum_gap = 0.0;
  for (int t = 0; t < 2000 && witnesses < 500; ++t) {
    WorldSet a = WorldSet::random(n, rng, 0.4);
    WorldSet b = WorldSet::random(n, rng, 0.4);
    auto witness = supermodular_necessary_witness(a, b);
    if (!witness) continue;
    ++witnesses;
    const double gap = witness->safety_gap(a, b);
    valid += gap > 1e-9 && is_log_supermodular(*witness);
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
    sum_gap += gap;
  }
  std::printf("Prop. 5.2 contrapositive on random pairs:\n");
  std::printf("  4-point witnesses constructed: %d, valid (supermodular & gaining): %d\n",
              witnesses, valid);
  std::printf("  witness gap min/avg/max: %.3f / %.3f / %.3f "
              "(uniform sublattice: gaps are P[AB](1-P[AB]))\n\n",
              min_gap, sum_gap / std::max(witnesses, 1), max_gap);

  // Decision envelope on random instances.
  int safe_v = 0, unsafe_v = 0, unknown_v = 0;
  const int trials = 3000;
  const DecisionEngine engine(n, PriorAssumption::kLogSupermodular);
  AuditContext ctx;
  for (int t = 0; t < trials; ++t) {
    WorldSet a = WorldSet::random(n, rng, 0.4);
    WorldSet b = WorldSet::random(n, rng, 0.4);
    switch (engine.decide(a, b, ctx).verdict) {
      case Verdict::kSafe:
        ++safe_v;
        break;
      case Verdict::kUnsafe:
        ++unsafe_v;
        break;
      default:
        ++unknown_v;
    }
  }
  std::printf("Pi_m+ decision envelope on %d random pairs (density 0.4, n=%u):\n",
              trials, n);
  std::printf("  safe %d (%.1f%%), unsafe %d (%.1f%%), unknown %d (%.1f%%)\n",
              safe_v, 100.0 * safe_v / trials, unsafe_v, 100.0 * unsafe_v / trials,
              unknown_v, 100.0 * unknown_v / trials);
  std::printf("  (the unknown zone is the necessary-vs-sufficient gap the paper\n"
              "   leaves open for Pi_m+)\n");
  return 0;
}
