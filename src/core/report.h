// Plain-text rendering of audit reports.
#pragma once

#include <string>

#include "core/auditor.h"

namespace epi {

/// Renders a report as an aligned text table with one row per disclosure and
/// a per-user cumulative section.
std::string format_report(const AuditReport& report);

/// Renders the decision-path instrumentation: one row per engine stage with
/// invocation / decision counts and cumulative wall time, plus the memo hit
/// count (AuditReport::memo_hits: verdict lookups served by a set the audit
/// decided once) — all views over the report's metrics snapshot. Counts are
/// deterministic; wall times are wall times.
std::string format_stage_stats(const AuditReport& report);

/// Renders every metric in the report's snapshot (the raw registry view;
/// format_stage_stats is the curated one).
std::string format_metrics(const AuditReport& report);

}  // namespace epi
