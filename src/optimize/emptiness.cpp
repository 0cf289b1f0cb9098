#include "optimize/emptiness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "algebra/safety_polynomial.h"
#include "util/rng.h"

namespace epi {

AlgebraicFamily unconstrained_family_in_weights(unsigned n) {
  AlgebraicFamily f;
  f.name = "unconstrained";
  f.nvars = std::size_t{1} << n;
  return f;
}

AlgebraicFamily supermodular_family_in_weights(unsigned n) {
  AlgebraicFamily f;
  f.name = "log-supermodular";
  f.nvars = std::size_t{1} << n;
  f.inequalities = supermodularity_constraints_in_weights(n);
  return f;
}

AlgebraicFamily submodular_family_in_weights(unsigned n) {
  AlgebraicFamily f;
  f.name = "log-submodular";
  f.nvars = std::size_t{1} << n;
  for (Polynomial& p : supermodularity_constraints_in_weights(n)) {
    f.inequalities.push_back(-p);
  }
  return f;
}

AlgebraicFamily product_family_in_weights(unsigned n) {
  AlgebraicFamily f;
  f.name = "product";
  f.nvars = std::size_t{1} << n;
  for (Polynomial& p : supermodularity_constraints_in_weights(n)) {
    f.inequalities.push_back(p);
    f.inequalities.push_back(-p);
  }
  return f;
}

std::vector<double> project_to_simplex(std::vector<double> v) {
  // Michelot/Held-style projection: find tau with sum max(v_i - tau, 0) = 1.
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumulative = 0.0;
  double tau = 0.0;
  std::size_t rho = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumulative += u[i];
    const double candidate = (cumulative - 1.0) / static_cast<double>(i + 1);
    if (u[i] - candidate > 0.0) {
      rho = i + 1;
      tau = candidate;
    }
  }
  (void)rho;
  for (double& x : v) x = std::max(x - tau, 0.0);
  return v;
}

EmptinessSearchResult search_violating_distribution(const AlgebraicFamily& family,
                                                    const WorldSet& a,
                                                    const WorldSet& b,
                                                    const EmptinessOptions& options) {
  const std::size_t nvars = family.nvars;
  if (nvars != a.omega_size()) {
    throw std::invalid_argument("search_violating_distribution: nvars != 2^n");
  }
  const Polynomial margin = weight_safety_margin(a, b);  // P[A]P[B] - P[AB]
  // We maximize the *gap* = -margin.
  std::vector<Polynomial> gap_grad;
  for (std::size_t i = 0; i < nvars; ++i) gap_grad.push_back(-margin.derivative(i));
  std::vector<std::vector<Polynomial>> constraint_grads;
  for (const Polynomial& alpha : family.inequalities) {
    std::vector<Polynomial> grads;
    for (std::size_t i = 0; i < nvars; ++i) grads.push_back(alpha.derivative(i));
    constraint_grads.push_back(std::move(grads));
  }

  Rng rng(options.seed);
  EmptinessSearchResult result;
  result.best_gap = -1.0;
  double best_penalized = -1e300;

  for (int start = 0; start < options.multistarts; ++start) {
    std::vector<double> p(nvars);
    double sum = 0.0;
    for (double& x : p) {
      x = -std::log(1.0 - rng.next_double());
      sum += x;
    }
    for (double& x : p) x /= sum;

    for (int iter = 0; iter < options.iterations; ++iter) {
      // Gradient of gap - penalty * sum over violated constraints of alpha^2.
      std::vector<double> grad(nvars, 0.0);
      for (std::size_t i = 0; i < nvars; ++i) grad[i] = gap_grad[i].eval(p);
      for (std::size_t c = 0; c < family.inequalities.size(); ++c) {
        const double alpha = family.inequalities[c].eval(p);
        if (alpha >= 0.0) continue;
        const double scale = -2.0 * options.penalty * alpha;
        for (std::size_t i = 0; i < nvars; ++i) {
          grad[i] += scale * constraint_grads[c][i].eval(p);
        }
      }
      // Norm-clipped step: penalty gradients can be orders of magnitude
      // larger than the gap gradient, so a raw fixed step diverges.
      double grad_norm = 0.0;
      for (double gval : grad) grad_norm += gval * gval;
      grad_norm = std::sqrt(grad_norm);
      const double scale = grad_norm > 1.0 ? 1.0 / grad_norm : 1.0;
      const double step = scale * options.step / (1.0 + 0.02 * iter);
      for (std::size_t i = 0; i < nvars; ++i) p[i] += step * grad[i];
      p = project_to_simplex(std::move(p));
    }

    // Track the best penalized objective regardless of feasibility, for
    // callers that round the relaxation themselves.
    double penalized = -margin.eval(p);
    bool feasible = true;
    for (const Polynomial& alpha : family.inequalities) {
      const double value = alpha.eval(p);
      if (value < 0.0) penalized -= options.penalty * value * value;
      if (value < -options.feasibility_tol) feasible = false;
    }
    if (penalized > best_penalized) {
      best_penalized = penalized;
      result.best_iterate = p;
    }
    if (!feasible) continue;
    const double gap = -margin.eval(p);
    if (gap > result.best_gap) {
      result.best_gap = gap;
      if (gap > options.gap_threshold) {
        result.found = true;
        const unsigned n = a.n();
        result.witness = Distribution(n, p, /*normalize=*/true);
      }
    }
  }
  return result;
}

}  // namespace epi
