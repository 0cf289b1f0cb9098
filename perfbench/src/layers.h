// The traced run's in-process half: spans taken in this file around the
// public entry point of each layer, over the same disclosure stream the
// workload sends, from the innermost layer out. A span here is one call's
// steady_clock duration; nothing inside the program is instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/audit_log.h"

namespace perfbench {

/// One stream to peel: the scenario plus the log, whose user keys are
/// session keys (one key per session, in send order).
struct PeelStream {
  epi::RecordUniverse universe;
  epi::World state = 0;
  epi::PriorAssumption prior = epi::PriorAssumption::kUnrestricted;
  epi::SetBackend backend = epi::SetBackend::kAuto;
  std::vector<std::string> properties;
  epi::AuditLog log;
  /// Session replay (worlds, incremental engine) is skipped for symbolic
  /// streams: see the rectangles@32 note in perfbench/README.md.
  bool replay_sessions = true;
};

/// Span samples and counter totals gathered over one or more streams.
struct LayerSamples {
  std::vector<double> parse_us, compile_us;   ///< per distinct disclosure
  std::vector<double> absorb_us;              ///< per session step
  std::vector<double> decide_us;              ///< per distinct (A, B)
  std::vector<double> incremental_us;         ///< per session step
  /// Per request of the first property's replay, aligned by log index: the
  /// db, worlds and engine work the service would do for that request
  /// (compile and the per-disclosure decision only on first sight, as its
  /// caches do).
  std::vector<double> request_inner_us;
  /// In-process AuditService span per request, aligned with the above.
  std::vector<double> service_us;
  double audit_1t_ms = 0, audit_2t_ms = 0;    ///< audit_many at 1 / 2 threads
  double compile_ms = 0;                      ///< distinct-disclosure compiles
  double stage_ms = 0;                        ///< stage nanos of the 1t call
  std::map<std::string, double> stage_nanos;  ///< by stage name, 1t call
  double memo_hits = 0, memo_lookups = 0;
};

/// Peels one stream into `samples`. `properties` of the stream are audited
/// together (one audit_many), the session replay uses the first. With
/// `service_threads` > 0 each replayed request also goes through an
/// in-process AuditService with that many workers.
void peel_stream(const PeelStream& stream, unsigned service_threads,
                 LayerSamples* samples);

/// Writes the db / worlds / engine / core per-layer metrics.
void report_layers(const LayerSamples& samples, Result* result);

/// Every stage name any prior's cascade uses, for the share metrics.
std::vector<std::string> all_stage_names();

}  // namespace perfbench
