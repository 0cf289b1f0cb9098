// The paper's combinatorial criteria as ordered decision tables. Each
// NamedCriterion entry is one test (Thm. 3.11, Miklau-Suciu, Prop. 5.9, ...)
// that either decides an (A, B) pair, with a witness prior when unsafe, or
// passes it on. The tables are data: the DecisionEngine (src/engine/) wraps
// each entry in a TableStage and is the only code that walks a cascade, so
// the tables carry no runner of their own. Callers that need one entry's
// answer (tests, model checks, benches) call its `test` directly.
#pragma once

#include <optional>
#include <vector>

#include "criteria/verdict.h"
#include "probabilistic/distribution.h"
#include "probabilistic/product.h"
#include "worlds/world_set.h"

namespace epi {

/// One criterion's answer: kUnknown passes the pair to the next entry.
struct CriterionOutcome {
  Verdict verdict = Verdict::kUnknown;
  std::optional<Distribution> witness_distribution;
  std::optional<ProductDistribution> witness_product;
};

/// A named, ordered entry of a decision cascade.
struct NamedCriterion {
  const char* name;
  /// Skip the criterion when a.n() > max_n (0 = no limit). Used for the
  /// memory-bound 3^n box tables.
  unsigned max_n;
  CriterionOutcome (*test)(const WorldSet& a, const WorldSet& b);
};

/// The product-prior cascade (Pi_m0): Theorem 3.11, Miklau-Suciu (Thm 5.7),
/// monotonicity, cancellation (Prop 5.9) for "safe"; the box-count criterion
/// (Prop 5.10, n <= 14) for "unsafe".
const std::vector<NamedCriterion>& product_criteria();

/// The log-supermodular cascade (Pi_m+): Theorem 3.11 and Proposition 5.4
/// for "safe"; Proposition 5.2 (4-point witness) and — since Pi_m0 ⊆ Pi_m+ —
/// the box-count criterion for "unsafe".
const std::vector<NamedCriterion>& supermodular_criteria();

}  // namespace epi
