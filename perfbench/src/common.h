// Shared pieces of epi_perfbench: argument parsing, timing and
// percentile helpers, the flat JSON result line, and the generated inputs of
// the two served workloads (scenario header plus request schedule) together
// with the offline Auditor's expected verdicts for them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/auditor.h"
#include "workloads/family.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// `--key value` pairs after the subcommand; flags without a value are
/// rejected so a typo never silently falls back to a default.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string str(const std::string& key, const std::string& fallback) const;
  long num(const std::string& key, long fallback) const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile (0 <= q <= 1) of an unsorted sample; NaN
/// for an empty one. Matches numpy's default ("linear") method.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Collects the named numbers of one run and prints them as the run's
/// result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Every value of one run is measured in that run; nothing is folded in
/// from another.
class Result {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  double get(const std::string& name) const { return metrics_.at(name); }
  void note(const std::string& text);  ///< human-readable, goes to stderr
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::map<std::string, double> metrics_;
};

/// FNV-1a over a byte string (the offline digest's hash).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull);

/// One scheduled operation of a served workload.
struct Op {
  bool reset = false;       ///< reset_session instead of an audit
  std::uint32_t user = 0;   ///< index into ServedInputs::users
  std::uint32_t request = 0;  ///< index into the family stream (audits)
};

/// The generated inputs of a served workload: what the servers receive (the
/// scenario header) and what the load generator sends (the schedule).
struct ServedInputs {
  epi::workloads::GeneratedWorkload generated;
  std::string audit_query;           ///< the property the servers enforce
  std::vector<std::string> users;    ///< session keys (without phase prefix)
  std::vector<Op> schedule;          ///< one pass of the workload's traffic
  double fixed_rate = 0;             ///< req/s of the fixed-rate phase
  double p95_limit_us = 0;           ///< capacity search latency limit
  double capacity_hi = 0;            ///< upper end of the capacity search
};

/// The deployment every run audits: records, database state, prior and
/// sensitive properties come from this fixed family seed, so the servers'
/// scenario is the same in every run and the run seed varies the traffic.
constexpr std::uint64_t kScenarioSeed = 2008;

/// A family instance whose scenario is the kScenarioSeed one and whose
/// stream is drawn with `options.seed`, every answer re-evaluated at the
/// scenario's database state (so sessions stay consistent and monotone).
epi::workloads::GeneratedWorkload generate_traffic(
    const epi::workloads::WorkloadFamily& family,
    const epi::workloads::FamilyOptions& options);

/// Served-workload inputs: routed-sessions and direct-churn. `requests` is
/// the number of audits to generate.
ServedInputs make_served_inputs(const std::string& workload, std::uint64_t seed,
                                std::size_t requests);

/// The scenario header the servers boot from: records, state, prior and one
/// audit directive, no query lines.
std::string scenario_header(const ServedInputs& inputs);

/// What the offline Auditor says about one disclosure, as the wire shows it.
struct ExpectedFinding {
  std::string verdict;
  std::string method;
  bool certified = false;
};

/// Adds to `expected` the offline per-disclosure finding of every distinct
/// (query, answer) of the stream it does not hold yet, keyed by query text +
/// '\x1f' + answer. Phases of one run share the scenario, so one map serves
/// them all.
void expected_disclosures(const ServedInputs& inputs,
                          std::unordered_map<std::string, ExpectedFinding>* expected);
std::string disclosure_key(const std::string& text, bool answer);

}  // namespace perfbench
