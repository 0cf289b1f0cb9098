// Factories for the built-in decision stages. The DecisionEngine assembles
// these into per-prior cascades; applications can interleave their own
// CriterionStage implementations via DecisionEngine::register_stage (see
// docs/extending.md).
#pragma once

#include <memory>
#include <string>

#include "criteria/pipeline.h"
#include "engine/criterion_stage.h"
#include "optimize/coordinate_ascent.h"

namespace epi {

/// Wraps one NamedCriterion table entry (theorem-3.11, miklau-suciu, ...).
/// `distribution_label` prefixes the witness support in the finding's detail
/// when the criterion produces a general witness distribution (e.g.
/// "log-supermodular prior on ").
std::unique_ptr<CriterionStage> make_table_stage(const NamedCriterion& entry,
                                                 std::string distribution_label);

/// Theorem 3.11 as a complete decision (unrestricted priors): safe or unsafe
/// with a two-point witness prior, never unknown.
std::unique_ptr<CriterionStage> make_unrestricted_stage();

/// Projected-gradient / coordinate-ascent search for a violating product
/// prior. Decides kUnsafe (with witness) on success; otherwise records its
/// best numeric gap and cascades.
std::unique_ptr<CriterionStage> make_coordinate_ascent_stage(
    AscentOptions options);

/// SOS certificate for product-prior safety. `enabled` is baked at engine
/// construction (the legacy gate is on the *original* record count, not the
/// projected one).
std::unique_ptr<CriterionStage> make_sos_certificate_stage(bool enabled);

/// Terminal product stage: declares kSafe without a certificate when every
/// proof-backed stage above passed and the optimizer found no violation.
std::unique_ptr<CriterionStage> make_numeric_fallback_stage();

/// Subcube-knowledge decision via the Section 4.1 interval machinery. Uses
/// the AuditContext's prepared Delta classes when they were built for this
/// audit query ("subcube-intervals(prepared)"), else the oracle's cached
/// interval scan.
std::unique_ptr<CriterionStage> make_subcube_interval_stage();

}  // namespace epi
