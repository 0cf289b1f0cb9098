// Experiment E2 (DESIGN.md): the Section 1.1 possible-worlds table.
//
// Paper claim: with A = "r1 in omega" and B = "r1 in omega => r2 in omega",
// learning B rules out exactly the cell (r1=1, r2=0) and can only LOWER the
// odds of A: P[A | B] <= P[A] for every prior, regardless of record
// correlations — even though A and B share the critical record r1, so
// perfect secrecy (Miklau-Suciu) rejects the disclosure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "criteria/miklau_suciu.h"
#include "db/parser.h"
#include "db/record.h"
#include "engine/decision_engine.h"
#include "probabilistic/distribution.h"

using namespace epi;

int main() {
  RecordUniverse universe;
  universe.add("r1");  // "Bob is HIV-positive"
  universe.add("r2");  // "Bob had blood transfusions"
  const WorldSet a = parse_query("r1")->compile(universe);
  const WorldSet b = parse_query("r1 -> r2")->compile(universe);

  std::printf("=== E2: Section 1.1 possible-worlds table ===\n\n");
  std::printf("              | r2 in w     | r2 not in w\n");
  std::printf("  ------------+-------------+-------------\n");
  for (int r1 = 1; r1 >= 0; --r1) {
    std::printf("  r1 %s w  |", r1 ? "in    " : "not in");
    for (int r2 = 1; r2 >= 0; --r2) {
      World w = 0;
      if (r1) w = world_with_bit(w, 0, true);
      if (r2) w = world_with_bit(w, 1, true);
      std::printf(" A %-5s %s |", a.contains(w) ? "true" : "false",
                  b.contains(w) ? " " : "X");
    }
    std::printf("\n");
  }
  std::printf("  (X marks the cell ruled out by learning B — the paper's check mark)\n\n");

  // Randomized check over arbitrary (correlated) priors. The conditional
  // runs on the fused P[A∩B] kernel; the fused-axis section below times this
  // very scan against the allocate-then-sum idiom it replaced.
  Rng rng(11);
  const int trials = 100000;
  double worst_gain = -1.0;
  double worst_direct_gain = -1.0;
  const WorldSet direct = a;  // Mallory's direct query
  const auto fused_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < trials; ++i) {
    const Distribution p = Distribution::random(2, rng);
    worst_gain = std::max(worst_gain, p.conditional(a, b) - p.prob(a));
    worst_direct_gain =
        std::max(worst_direct_gain, p.conditional(a, direct) - p.prob(a));
  }
  const double fused_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fused_t0)
          .count();
  std::printf("max over %d random priors of P[A|B] - P[A]:\n", trials);
  std::printf("  implication query B = (r1 -> r2): % .3e   (paper: <= 0 always)\n",
              worst_gain);
  std::printf("  direct query      B = r1        : % .3e   (> 0: a breach)\n\n",
              worst_direct_gain);

  // Fused axis: the same 100k-prior scan with P[A∩B] computed the
  // pre-kernel way — materialize A∩B, then sum its weights through a
  // type-erased std::function per world. Gains must match bit for bit.
  {
    Rng naive_rng(11);
    double naive_worst = -1.0;
    double naive_worst_direct = -1.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < trials; ++i) {
      const Distribution p = Distribution::random(2, naive_rng);
      const std::function<double(const WorldSet&, const WorldSet&)> cond =
          [&p](const WorldSet& x, const WorldSet& y) {
            double pxy = 0.0;
            (x & y).visit([&](World w) { pxy += p.prob(w); });
            return pxy / p.prob(y);
          };
      naive_worst = std::max(naive_worst, cond(a, b) - p.prob(a));
      naive_worst_direct =
          std::max(naive_worst_direct, cond(a, direct) - p.prob(a));
    }
    const double naive_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("fused axis (same scan, P[A|B] via the dense_bits kernel):\n");
    std::printf("  naive allocate-then-sum: %.3f s   fused: %.3f s   (%.2fx)\n",
                naive_seconds, fused_seconds, naive_seconds / fused_seconds);
    std::printf("  gains identical: %s\n\n",
                (naive_worst == worst_gain &&
                 naive_worst_direct == worst_direct_gain)
                    ? "yes (bit-for-bit)"
                    : "NO — kernel changed float accumulation order");
  }

  std::printf("verdict comparison for the implication query:\n");
  std::printf("  perfect secrecy (Miklau-Suciu, shares critical record r1): %s\n",
              miklau_suciu_independent(a, b) ? "allows" : "REJECTS");
  AuditContext ctx;
  const EngineDecision unrestricted =
      DecisionEngine(2, PriorAssumption::kUnrestricted).decide(a, b, ctx);
  const EngineDecision product =
      DecisionEngine(2, PriorAssumption::kProduct).decide(a, b, ctx);
  std::printf("  epistemic privacy, unrestricted priors (Thm 3.11):         %s\n",
              unrestricted.verdict == Verdict::kSafe ? "allows" : "rejects");
  std::printf("  epistemic privacy, product priors (pipeline):              %s (%s)\n",
              product.verdict == Verdict::kSafe ? "allows" : "rejects",
              product.method.c_str());
  return 0;
}
