// Experiment E9 (DESIGN.md): the algebraic layer of Section 6 — SOS /
// Positivstellensatz certificates vs numeric optimization.
//
// Paper claims measured:
//  * Prop. 6.4 route: SOS membership testing via semidefinite feasibility
//    works in practice ("implemented and works remarkably well");
//  * the Motzkin polynomial is nonnegative but NOT a sum of squares;
//  * on product-prior safety instances that defeat every combinatorial
//    criterion, the degree-bounded Positivstellensatz (Thm. 6.7) certifies
//    the safe ones while coordinate ascent refutes the unsafe ones — we
//    report the agreement matrix and timing of the two.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "algebra/safety_polynomial.h"
#include "criteria/pipeline.h"
#include "optimize/coordinate_ascent.h"
#include "optimize/positivstellensatz.h"
#include "optimize/sos.h"

using namespace epi;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("=== E9: SOS certificates vs numeric optimization (Section 6) ===\n\n");

  // Sanity rows from the paper's Section 6.2 discussion.
  {
    const std::size_t s = 2;
    Polynomial x = Polynomial::variable(s, 0);
    Polynomial y = Polynomial::variable(s, 1);
    const auto t0 = std::chrono::steady_clock::now();
    const bool square_ok = is_sos((x - y).pow(2));
    const double square_ms = ms_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    SdpOptions opts;
    opts.max_iterations = 1500;
    const bool motzkin = is_sos(motzkin_polynomial(), opts);
    const double motzkin_ms = ms_since(t1);
    std::printf("%-42s %-8s %10.1f ms   (paper: yes)\n",
                "(x - y)^2 in Sigma^2:", square_ok ? "yes" : "no", square_ms);
    std::printf("%-42s %-8s %10.1f ms   (paper: no — Motzkin)\n",
                "Motzkin polynomial in Sigma^2:", motzkin ? "yes" : "no",
                motzkin_ms);
  }

  // Agreement matrix on pipeline-unknown product-safety instances at n = 3.
  std::printf("\ninstances undecided by every combinatorial criterion (n = 3):\n");
  std::printf("%6s %6s %28s %16s\n", "count", "", "optimizer verdict",
              "SOS certificate");
  Rng rng(606);
  int both_safe = 0, both_unsafe_unknown = 0, disagree = 0, sos_timeout = 0;
  double opt_ms_total = 0.0, sos_ms_total = 0.0;
  int considered = 0;
  for (int t = 0; t < 4000 && considered < 60; ++t) {
    WorldSet a = WorldSet::random(3, rng, 0.5);
    WorldSet b = WorldSet::random(3, rng, 0.5);
    const std::vector<NamedCriterion>& table = product_criteria();
    if (std::any_of(table.begin(), table.end(), [&](const NamedCriterion& c) {
          return c.test(a, b).verdict != Verdict::kUnknown;
        })) {
      continue;
    }
    ++considered;

    auto t0 = std::chrono::steady_clock::now();
    AscentOptions ascent;
    ascent.seed = 515 + t;
    const double gap = maximize_product_gap(a, b, ascent).max_gap;
    opt_ms_total += ms_since(t0);
    const bool numeric_safe = gap <= 1e-9;

    t0 = std::chrono::steady_clock::now();
    SdpOptions sdp;
    sdp.max_iterations = 6000;
    const Verdict sos = sos_product_safety(a, b, 0, sdp);
    sos_ms_total += ms_since(t0);

    if (numeric_safe && sos == Verdict::kSafe) {
      ++both_safe;
    } else if (!numeric_safe && sos == Verdict::kUnknown) {
      ++both_unsafe_unknown;
    } else if (numeric_safe && sos == Verdict::kUnknown) {
      ++sos_timeout;  // safe numerically but certificate not found in budget
    } else {
      ++disagree;  // SOS says safe but optimizer found a violation: impossible
    }
  }
  std::printf("  %4d   safe by optimizer, certified by SOS\n", both_safe);
  std::printf("  %4d   unsafe by optimizer, SOS correctly finds no certificate\n",
              both_unsafe_unknown);
  std::printf("  %4d   safe by optimizer, SOS budget exhausted (heuristic miss)\n",
              sos_timeout);
  std::printf("  %4d   contradictions (must be 0)\n", disagree);
  std::printf("  avg optimizer time %.2f ms, avg SOS time %.2f ms\n",
              opt_ms_total / considered, sos_ms_total / considered);

  // The Remark 5.12 flagship instance.
  std::printf("\nRemark 5.12 instance (defeats all combinatorial criteria):\n");
  WorldSet a = WorldSet::from_strings(3, {"011", "100", "110", "111"});
  WorldSet b = WorldSet::from_strings(3, {"010", "101", "110", "111"});
  const auto t0 = std::chrono::steady_clock::now();
  SdpOptions sdp;
  sdp.max_iterations = 20000;
  const auto cert = prove_nonneg_on_box(product_safety_margin(a, b).pruned(1e-14),
                                        4, sdp);
  std::printf("  degree-4 Positivstellensatz certificate: %s (%.1f ms)\n",
              cert ? "FOUND" : "not found", ms_since(t0));
  if (cert) {
    std::printf("  (closed form: margin = (p0 - p1)^2 * p2(1 - p2))\n");
  }
  return 0;
}
