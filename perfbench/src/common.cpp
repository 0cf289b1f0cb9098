#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "db/parser.h"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected '--key value', got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Args::num(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  const long value = std::stol(it->second, &used);
  if (used != it->second.size()) {
    throw std::invalid_argument("--" + key + " needs an integer");
  }
  return value;
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  const unsigned long long value = std::stoull(it->second, &used);
  if (used != it->second.size()) {
    throw std::invalid_argument("--" + key + " needs an unsigned integer");
  }
  return value;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void Result::note(const std::string& text) {
  std::fprintf(stderr, "perfbench: %s\n", text.c_str());
}

void Result::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    // JSON has no NaN/inf; a missing measurement prints as null so the
    // caller sees it instead of a made-up number.
    if (std::isfinite(value)) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    } else {
      std::printf("%s\"%s\": null", first ? "" : ", ", name.c_str());
    }
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Served-workload calibration (4-core x86-64 container; see
// perfbench/README.md for how these were chosen and re-checked).
struct ServedSpec {
  const char* family;
  unsigned records;
  double fixed_rate;     // req/s, under half of the measured capacity
  double p95_limit_us;   // capacity-search latency limit
  double capacity_hi;    // search ceiling, above any capacity seen
  unsigned session_length;  // audits per session before reset_session
  unsigned disclosures_per_user;  // 0 = fixed user count below
  unsigned users;
};

ServedSpec spec_for(const std::string& workload) {
  if (workload == "routed-sessions") {
    return ServedSpec{"policy", 10, 10000, 5000, 80000, 100, 0, 256};
  }
  if (workload == "direct-churn") {
    return ServedSpec{"hospital", 10, 7000, 5000, 48000, 0, 5, 0};
  }
  throw std::invalid_argument("unknown served workload '" + workload + "'");
}

}  // namespace

epi::workloads::GeneratedWorkload generate_traffic(
    const epi::workloads::WorkloadFamily& family,
    const epi::workloads::FamilyOptions& options) {
  epi::workloads::FamilyOptions scenario_options = options;
  scenario_options.seed = kScenarioSeed;
  epi::workloads::GeneratedWorkload scenario, traffic;
  for (const epi::Status& s : {family.generate(scenario_options, &scenario),
                               family.generate(options, &traffic)}) {
    if (!s.ok()) throw std::runtime_error(s.to_string());
  }
  if (scenario.universe.names() != traffic.universe.names()) {
    throw std::logic_error("traffic universe differs from the scenario's");
  }
  std::unordered_map<std::string, bool> answers;
  for (auto& request : traffic.stream) {
    auto [it, added] = answers.emplace(request.query_text, false);
    if (added) {
      it->second = epi::parse_query(request.query_text)
                       ->evaluate(scenario.universe, scenario.initial_state);
    }
    request.answer = it->second;
  }
  scenario.stream = std::move(traffic.stream);
  return scenario;
}

ServedInputs make_served_inputs(const std::string& workload, std::uint64_t seed,
                                std::size_t requests) {
  const ServedSpec spec = spec_for(workload);
  ServedInputs inputs;
  inputs.fixed_rate = spec.fixed_rate;
  inputs.p95_limit_us = spec.p95_limit_us;
  inputs.capacity_hi = spec.capacity_hi;

  epi::workloads::FamilyOptions options;
  options.seed = seed;
  options.records = spec.records;
  options.requests = static_cast<unsigned>(std::max<std::size_t>(requests, 1));
  options.users = spec.users != 0
                      ? spec.users
                      : static_cast<unsigned>(std::max<std::size_t>(
                            requests / spec.disclosures_per_user, 1));
  const epi::workloads::WorkloadFamily* family =
      epi::workloads::find_family(spec.family);
  if (family == nullptr) throw std::runtime_error("family missing from registry");
  inputs.generated = generate_traffic(*family, options);
  inputs.audit_query = inputs.generated.audit_queries.front();

  std::unordered_map<std::string, std::uint32_t> index;
  std::vector<unsigned> audits_in_session;
  const auto& stream = inputs.generated.stream;
  inputs.schedule.reserve(stream.size() + stream.size() / 64);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [it, added] = index.emplace(
        stream[i].user, static_cast<std::uint32_t>(inputs.users.size()));
    if (added) {
      inputs.users.push_back(stream[i].user);
      audits_in_session.push_back(0);
    }
    const std::uint32_t user = it->second;
    if (spec.session_length != 0 &&
        audits_in_session[user] == spec.session_length) {
      inputs.schedule.push_back(Op{true, user, 0});
      audits_in_session[user] = 0;
    }
    ++audits_in_session[user];
    inputs.schedule.push_back(Op{false, user, static_cast<std::uint32_t>(i)});
  }
  return inputs;
}

std::string scenario_header(const ServedInputs& inputs) {
  const auto& generated = inputs.generated;
  const std::vector<std::string> names = generated.universe.names();
  std::string out;
  for (const std::string& name : names) out += "record " + name + "\n";
  for (unsigned c = 0; c < names.size(); ++c) {
    if ((generated.initial_state >> c) & 1u) out += "insert " + names[c] + "\n";
  }
  out += "prior " + epi::to_string(generated.prior) + "\n";
  out += "audit " + inputs.audit_query + "\n";
  return out;
}

std::string disclosure_key(const std::string& text, bool answer) {
  return text + '\x1f' + (answer ? '1' : '0');
}

void expected_disclosures(const ServedInputs& inputs,
                          std::unordered_map<std::string, ExpectedFinding>* expected) {
  // One log entry per new distinct (query, answer), each under its own user,
  // so the per-disclosure section lists every pair exactly once.
  epi::AuditLog log;
  std::vector<std::string> keys;
  std::unordered_set<std::string> seen;
  for (const auto& request : inputs.generated.stream) {
    std::string key = disclosure_key(request.query_text, request.answer);
    if (expected->count(key) != 0 || !seen.insert(key).second) continue;
    log.record_with_answer("d" + std::to_string(keys.size()), request.query_text,
                           request.answer);
    keys.push_back(std::move(key));
  }
  if (keys.empty()) return;
  epi::AuditorOptions options;
  options.threads = 2;
  const epi::Auditor auditor(inputs.generated.universe, inputs.generated.prior,
                             options);
  const std::vector<std::string> property{inputs.audit_query};
  const epi::AuditReport report = auditor.audit_many(log, property).front();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const epi::AuditFinding& f = report.per_disclosure[i];
    expected->emplace(keys[i],
                      ExpectedFinding{epi::to_string(f.verdict), f.method, f.certified});
  }
}

}  // namespace perfbench
