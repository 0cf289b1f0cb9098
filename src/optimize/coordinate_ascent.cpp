#include "optimize/coordinate_ascent.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace epi {
namespace {

double gap_at(const WorldSet& a, const WorldSet& b, const std::vector<double>& p) {
  return ProductDistribution(p).safety_gap(a, b);
}

/// Exact maximization over p[i] in [0,1] holding the rest fixed: the gap is
/// quadratic in p[i], recovered from three evaluations.
double best_coordinate_value(const WorldSet& a, const WorldSet& b,
                             std::vector<double>& p, unsigned i) {
  const double saved = p[i];
  p[i] = 0.0;
  const double g0 = gap_at(a, b, p);
  p[i] = 0.5;
  const double gh = gap_at(a, b, p);
  p[i] = 1.0;
  const double g1 = gap_at(a, b, p);
  // g(t) = qa t^2 + qb t + qc through (0,g0), (0.5,gh), (1,g1).
  const double qc = g0;
  const double qa = 2.0 * (g1 + g0 - 2.0 * gh);
  const double qb = g1 - g0 - qa;
  double best_t = g0 >= g1 ? 0.0 : 1.0;
  double best_v = std::max(g0, g1);
  if (qa < 0.0) {
    const double vertex = std::clamp(-qb / (2.0 * qa), 0.0, 1.0);
    const double vv = qa * vertex * vertex + qb * vertex + qc;
    if (vv > best_v) {
      best_v = vv;
      best_t = vertex;
    }
  }
  p[i] = saved;
  return best_t;
}

}  // namespace

AscentResult maximize_product_gap(const WorldSet& a, const WorldSet& b,
                                  const AscentOptions& options) {
  if (a.n() != b.n()) throw std::invalid_argument("maximize_product_gap: n mismatch");
  const unsigned n = a.n();
  Rng rng(options.seed);
  AscentResult best;
  best.max_gap = -1.0;

  for (int start = 0; start < options.multistarts; ++start) {
    std::vector<double> p(n);
    switch (start % 4) {
      case 0:  // uniform-random interior point
        for (double& v : p) v = rng.next_double();
        break;
      case 1:  // near-corner start
        for (double& v : p) v = rng.next_bool() ? 0.95 : 0.05;
        break;
      case 2:  // center
        for (double& v : p) v = 0.5;
        break;
      default:  // mixed corner/center
        for (double& v : p) v = rng.next_bool() ? 0.5 : (rng.next_bool() ? 0.9 : 0.1);
        break;
    }

    double current = gap_at(a, b, p);
    for (int cycle = 0; cycle < options.max_cycles; ++cycle) {
      const double before = current;
      for (unsigned i = 0; i < n; ++i) {
        p[i] = best_coordinate_value(a, b, p, i);
      }
      current = gap_at(a, b, p);
      if (current - before < options.improve_tol) break;
    }
    if (current > best.max_gap) {
      best.max_gap = current;
      best.argmax = p;
    }
  }
  return best;
}

}  // namespace epi
