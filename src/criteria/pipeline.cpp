#include "criteria/pipeline.h"

#include "criteria/box_necessary.h"
#include "criteria/cancellation.h"
#include "criteria/miklau_suciu.h"
#include "criteria/monotonicity.h"
#include "criteria/supermodular.h"
#include "criteria/unconditional.h"

namespace epi {
namespace {

CriterionOutcome safe_when(bool holds) {
  CriterionOutcome o;
  if (holds) o.verdict = Verdict::kSafe;
  return o;
}

CriterionOutcome theorem_311(const WorldSet& a, const WorldSet& b) {
  return safe_when(unconditionally_safe(a, b));
}

CriterionOutcome miklau_suciu(const WorldSet& a, const WorldSet& b) {
  return safe_when(miklau_suciu_independent(a, b));
}

CriterionOutcome monotonicity(const WorldSet& a, const WorldSet& b) {
  return safe_when(monotonicity_criterion(a, b));
}

CriterionOutcome cancellation(const WorldSet& a, const WorldSet& b) {
  return safe_when(cancellation_criterion(a, b).holds);
}

CriterionOutcome box_necessary(const WorldSet& a, const WorldSet& b) {
  CriterionOutcome o;
  BoxNecessaryResult box = box_necessary_criterion(a, b);
  if (!box.holds) {
    o.verdict = Verdict::kUnsafe;
    o.witness_product = std::move(box.witness);
  }
  return o;
}

CriterionOutcome four_functions(const WorldSet& a, const WorldSet& b) {
  return safe_when(supermodular_sufficient(a, b));
}

CriterionOutcome supermodular_refutation(const WorldSet& a, const WorldSet& b) {
  CriterionOutcome o;
  if (auto witness = supermodular_necessary_witness(a, b)) {
    o.verdict = Verdict::kUnsafe;
    o.witness_distribution = std::move(witness);
  }
  return o;
}

// The 3^n box tables are memory-bound; above the TernaryTable limit the
// stage is skipped rather than failing the whole cascade.
constexpr unsigned kBoxTableMaxN = 14;

}  // namespace

const std::vector<NamedCriterion>& product_criteria() {
  static const std::vector<NamedCriterion> kTable = {
      {"theorem-3.11", 0, theorem_311},
      {"miklau-suciu", 0, miklau_suciu},
      {"monotonicity", 0, monotonicity},
      {"cancellation", 0, cancellation},
      {"box-necessary", kBoxTableMaxN, box_necessary},
  };
  return kTable;
}

const std::vector<NamedCriterion>& supermodular_criteria() {
  static const std::vector<NamedCriterion> kTable = {
      {"theorem-3.11", 0, theorem_311},
      {"four-functions-sufficient", 0, four_functions},
      {"supermodular-necessary", 0, supermodular_refutation},
      {"box-necessary", kBoxTableMaxN, box_necessary},
  };
  return kTable;
}

}  // namespace epi
