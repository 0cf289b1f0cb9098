// Numerical maximization of the product-prior safety gap
//   gap(p) = P[AB] - P[A]P[B]
// over the parameter box [0,1]^n. The gap is an exact quadratic in each
// single parameter, so cyclic coordinate ascent takes exact per-coordinate
// steps; dense multistart makes it a practical decision procedure for
// Safe_{Pi_m0} (the operational stand-in for the Basu-Pollack-Roy algorithm
// of Section 6.1 — see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "probabilistic/product.h"
#include "worlds/world_set.h"

namespace epi {

/// Options for the multistart ascent.
struct AscentOptions {
  int multistarts = 48;       ///< random + structured restarts
  int max_cycles = 200;       ///< coordinate cycles per start
  double improve_tol = 1e-14; ///< stop when a full cycle improves less
  std::uint64_t seed = 0xC0FFEE;
};

/// Result of the maximization.
struct AscentResult {
  double max_gap = 0.0;          ///< best gap found (can be negative)
  std::vector<double> argmax;    ///< maximizing parameters
};

/// Maximizes gap(p) over [0,1]^n.
AscentResult maximize_product_gap(const WorldSet& a, const WorldSet& b,
                                  const AscentOptions& options = {});

}  // namespace epi
