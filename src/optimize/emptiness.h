// The set K(A,B,Pi) of Section 6 / Proposition 6.1: distributions in an
// algebraic family Pi with P[AB] > P[A]P[B]. Safety testing is emptiness
// testing of K(A,B,Pi). This module provides
//  * algebraic descriptions of the paper's families over world weights, and
//  * a projected-gradient search for a violating distribution (non-emptiness
//    witness, i.e. an "unsafe" certificate).
// The staged product-family decision (combinatorial criteria, coordinate
// ascent, SOS certificate) is the DecisionEngine's kProduct cascade.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algebra/polynomial.h"
#include "probabilistic/distribution.h"
#include "worlds/world_set.h"

namespace epi {

/// A family Pi described by polynomial inequalities over the 2^n world-weight
/// variables p_x (the simplex constraints sum p = 1, p >= 0 are implicit).
struct AlgebraicFamily {
  std::string name;
  std::size_t nvars = 0;  ///< 2^n
  std::vector<Polynomial> inequalities;  ///< alpha_i(p) >= 0
};

/// Pi with no constraints beyond the simplex (all priors).
AlgebraicFamily unconstrained_family_in_weights(unsigned n);
/// Pi_m+ : log-supermodular distributions.
AlgebraicFamily supermodular_family_in_weights(unsigned n);
/// Pi_m- : log-submodular distributions.
AlgebraicFamily submodular_family_in_weights(unsigned n);
/// Pi_m0 : product distributions (both inequality directions).
AlgebraicFamily product_family_in_weights(unsigned n);

struct EmptinessOptions {
  int multistarts = 12;
  int iterations = 600;
  double step = 0.15;
  double penalty = 100.0;         ///< quadratic penalty on constraint violation
  double gap_threshold = 1e-7;    ///< required margin for a witness
  double feasibility_tol = 1e-6;  ///< allowed alpha_i violation of a witness
  std::uint64_t seed = 0xE117;
};

/// Result of the non-emptiness search.
struct EmptinessSearchResult {
  bool found = false;          ///< a feasible violating prior was found
  double best_gap = 0.0;       ///< best feasible gap encountered
  std::optional<Distribution> witness;
  /// Best final iterate across starts regardless of feasibility (by
  /// penalized objective) — callers with problem structure can round it to a
  /// feasible family member (relax-and-round).
  std::vector<double> best_iterate;
};

/// Projected-gradient ascent over the weight simplex maximizing the safety
/// gap with a penalty on family-constraint violation. `found == false` means
/// "no witness found", NOT "safe".
EmptinessSearchResult search_violating_distribution(const AlgebraicFamily& family,
                                                    const WorldSet& a,
                                                    const WorldSet& b,
                                                    const EmptinessOptions& options = {});

/// Euclidean projection onto the probability simplex (exposed for tests).
std::vector<double> project_to_simplex(std::vector<double> v);

}  // namespace epi
