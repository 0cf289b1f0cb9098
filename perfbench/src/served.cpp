// The two served workloads, routed-sessions and direct-churn, driven over
// the wire against servers that run.py booted from the scenario header alone.
//
// Untraced (--trace 0): a fixed-rate phase gives p50 (and p95) from the
// intended send time, then a ladder of probe rates finds capacity_rps, the
// highest rate whose p95 stays under the workload's limit with no growing
// backlog. Every response is checked against the offline Auditor: the
// per-disclosure verdict, method and certificate flag of its (query, answer),
// its answer and sequence number, and each session's final cumulative
// verdict against an Auditor::audit_many of exactly what that session sent.
//
// Traced (--trace 1): the same fixed-rate stream is peeled layer by layer,
// innermost first: db parse/compile, worlds S∩B, engine decide and
// decide_incremental, an in-process AuditService, the wire to one worker, and
// the wire through a shard_router. Spans are taken around these public calls
// in this file; nothing inside the program is instrumented.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "common.h"
#include "layers.h"
#include "service/audit_service.h"
#include "service/protocol.h"
#include "wire.h"

namespace perfbench {
namespace {

constexpr unsigned kConnections = 4;
/// Latency windows, and how many lead a fixed-rate phase as warm-up (caches,
/// lazily built oracle state and the first sessions; still checked).
constexpr double kWindowSeconds = 0.5;
constexpr double kProbeWindowSeconds = 0.2;
constexpr std::size_t kWarmupWindows = 2;
/// Capacity search: probes in all, ladder step between rungs, and the p95 a
/// failed probe stands for when it has none that counts.
constexpr int kProbes = 9;
constexpr double kLadderStep = 1.5;
constexpr double kFailedP95Factor = 2;
/// Latency recorded for a response that never came.
constexpr double kLostUs = 1e12;
/// A run whose generator sent later than this (p95) measured the generator.
constexpr double kMaxSendLagUs = 250;
/// Threads of the offline Auditor that checks a run's sessions (after the
/// load, so the generator stays within four threads).
constexpr unsigned kCheckThreads = 3;
/// Requests of the traced stream replayed in-process (each layer once).
constexpr std::size_t kPeelRequests = 6000;

/// The traffic of one phase: the generated inputs plus the session keys it
/// used, so the checker can rebuild each session's log.
struct Phase {
  ServedInputs inputs;
  std::string prefix;
  std::vector<std::size_t> op_index;  ///< wire op -> schedule index
  std::vector<WireOp> wire;
  PhaseResult result;
  double rate = 0;
};

Phase make_phase(const std::string& workload, std::uint64_t seed,
                 const std::string& prefix, double rate, double seconds,
                 const std::vector<bool>* user_filter = nullptr) {
  Phase phase;
  phase.prefix = prefix;
  phase.rate = rate;
  const auto requests = static_cast<std::size_t>(std::ceil(rate * seconds));
  phase.inputs = make_served_inputs(workload, seed, requests);
  // The servers booted from the one-request header; a longer stream of the
  // same seed must describe the same scenario.
  if (scenario_header(phase.inputs) !=
      scenario_header(make_served_inputs(workload, seed, 1))) {
    throw std::logic_error("phase stream changes the scenario header");
  }
  const auto& stream = phase.inputs.generated.stream;
  for (std::size_t s = 0; s < phase.inputs.schedule.size(); ++s) {
    const Op& op = phase.inputs.schedule[s];
    if (user_filter != nullptr && !(*user_filter)[op.user % user_filter->size()]) {
      continue;
    }
    epi::service::WireRequest request;
    request.id = phase.wire.size() + 1;
    request.user = prefix + phase.inputs.users[op.user];
    if (op.reset) {
      request.op = epi::service::Op::kResetSession;
    } else {
      request.op = epi::service::Op::kAudit;
      request.query = stream[op.request].query_text;
      request.answer = stream[op.request].answer;
    }
    phase.wire.push_back(
        WireOp{epi::service::serialize_request(request) + "\n",
               op.user % kConnections});
    phase.op_index.push_back(s);
  }
  return phase;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errors + lost + check mismatches
  std::uint64_t mismatched = 0;  ///< check mismatches only (fail the run)
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::string first_mismatch;  ///< what the run is failed for
  std::string first_problem;   ///< errors and losses (capacity probes)

  void problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
  void mismatch(const std::string& what) {
    ++mismatched;
    if (first_mismatch.empty()) first_mismatch = what;
  }
};

/// The sessions of a phase as the server saw them, for one offline audit of
/// all their final cumulative verdicts.
struct SessionChecks {
  epi::AuditLog log;  ///< one user key per session, in send order
  struct Final {
    std::string verdict, method;
    std::uint64_t sequence = 0, disclosed = 0;
    bool counts = false;  ///< the session's phase counts in attempted
  };
  std::unordered_map<std::string, Final> finals;  ///< checkable sessions
};

/// Checks every response of a phase and records each session for the
/// cumulative check (finish_session_checks). Returns per-op pass/fail (true
/// = answered, ok and correct). A refused request (an error frame) was never
/// disclosed, so the session continues without it; a session with a lost
/// response is left out of the cumulative check, since whether the server
/// absorbed it is unknown.
std::vector<bool> check_phase(
    const Phase& phase,
    const std::unordered_map<std::string, ExpectedFinding>& expected, bool counts,
    SessionChecks* sessions, Tally* tally) {
  const auto& stream = phase.inputs.generated.stream;
  const std::size_t n = phase.wire.size();
  std::vector<bool> good(n, false);

  // Sessions as the server saw them: key -> audits absorbed, last such op.
  epi::AuditLog& log = sessions->log;
  std::unordered_map<std::uint32_t, unsigned> session_no;
  std::unordered_map<std::string, std::uint64_t> session_len;
  std::unordered_map<std::string, std::size_t> session_last_op;
  std::unordered_set<std::string> tainted;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = phase.inputs.schedule[phase.op_index[i]];
    const std::string key = phase.prefix + phase.inputs.users[op.user] + "#" +
                            std::to_string(session_no[op.user]);
    if (op.reset) ++session_no[op.user];
    const std::string& line = phase.result.responses[i];
    if (line.empty()) {
      ++tally->lost;
      tally->problem("lost response to request " + std::to_string(i + 1));
      tainted.insert(key);
      continue;
    }
    epi::service::WireResponse response;
    if (const epi::Status s = epi::service::parse_response(line, &response);
        !s.ok() || !response.ok) {
      ++tally->errors;
      tally->problem("error response: " + line);
      continue;
    }
    if (op.reset) {
      good[i] = true;
      continue;
    }
    const auto& request = stream[op.request];
    const auto it =
        expected.find(disclosure_key(request.query_text, request.answer));
    const std::uint64_t sequence = ++session_len[key];
    log.record_with_answer(key, request.query_text, request.answer);
    session_last_op[key] = i;
    const bool match = it != expected.end() && response.answer == request.answer &&
                       !response.denied && response.verdict == it->second.verdict &&
                       response.method == it->second.method &&
                       response.certified == it->second.certified &&
                       response.sequence == sequence;
    if (!match) {
      tally->mismatch("response differs from the offline Auditor (" +
                      (it == expected.end()
                           ? std::string("no offline finding")
                           : it->second.verdict + "/" + it->second.method + "/" +
                                 (it->second.certified ? "certified" : "uncertified")) +
                      ", sequence " + std::to_string(sequence) + ") to " +
                      phase.wire[i].line + " got " + line);
      continue;
    }
    good[i] = true;
  }

  for (const auto& [key, i] : session_last_op) {
    if (!good[i] || tainted.count(key) != 0) continue;
    epi::service::WireResponse response;
    (void)epi::service::parse_response(phase.result.responses[i], &response);
    sessions->finals[key] = SessionChecks::Final{response.cumulative_verdict,
                                                 response.cumulative_method,
                                                 response.sequence, session_len.at(key),
                                                 counts};
  }
  return good;
}

/// Each checkable session's final cumulative verdict, method and sequence
/// against Auditor::audit_many of exactly what that session disclosed, all
/// sessions of a phase in one call.
void finish_session_checks(const ServedInputs& scenario, const SessionChecks& sessions,
                           Tally* tally) {
  if (sessions.log.empty()) return;
  epi::AuditorOptions options;
  options.threads = kCheckThreads;
  const epi::Auditor auditor(scenario.generated.universe, scenario.generated.prior,
                             options);
  const std::vector<std::string> property{scenario.audit_query};
  const epi::AuditReport report = auditor.audit_many(sessions.log, property).front();
  for (const epi::AuditFinding& f : report.per_user_cumulative) {
    const auto it = sessions.finals.find(f.user);
    if (it == sessions.finals.end()) continue;
    const SessionChecks::Final& got = it->second;
    if (got.verdict != epi::to_string(f.verdict) || got.method != f.method ||
        got.sequence != got.disclosed) {
      if (got.counts) ++tally->failed;
      tally->mismatch("session " + f.user + " ends " + got.verdict + "/" + got.method +
                      " #" + std::to_string(got.sequence) + ", offline says " +
                      epi::to_string(f.verdict) + "/" + f.method + " #" +
                      std::to_string(got.disclosed));
    }
  }
}

/// A phase's latencies in windows of kWindowSeconds of intended send time:
/// the median over windows of each window's p50 and p95, so a burst of
/// interference on the shared machine moves one window, not the figure. A
/// window whose generator ran late (send lag p95 over kMaxSendLagUs) is left
/// out and counted; a lost response counts as never answered.
struct WindowStats {
  double p50 = 0, p95 = 0;
  std::size_t windows = 0, lagged = 0;
  bool valid() const { return windows > 0 && 2 * lagged <= windows + lagged; }
};

WindowStats window_stats(const Phase& phase, std::size_t skip,
                         double window_seconds = kWindowSeconds) {
  const std::size_t n = phase.wire.size();
  const auto per = std::max<std::size_t>(
      1, static_cast<std::size_t>(phase.rate * window_seconds));
  std::vector<double> p50s, p95s;
  WindowStats stats;
  for (std::size_t w = skip; (w + 1) * per <= n; ++w) {
    std::vector<double> latency, lag;
    for (std::size_t i = w * per; i < (w + 1) * per; ++i) {
      const double us = phase.result.latency_us[i];
      latency.push_back(std::isnan(us) ? kLostUs : us);
      lag.push_back(phase.result.send_lag_us[i]);
    }
    if (quantile(lag, 0.95) > kMaxSendLagUs) {
      ++stats.lagged;
      continue;
    }
    p50s.push_back(quantile(latency, 0.5));
    p95s.push_back(quantile(latency, 0.95));
  }
  stats.windows = p50s.size();
  stats.p50 = median(p50s);
  stats.p95 = median(p95s);
  return stats;
}

void run_phase(Phase& phase, const std::string& address, double drain_seconds) {
  phase.result =
      run_open_loop(address, kConnections, phase.wire, phase.rate, drain_seconds);
}

/// One capacity probe passes when nothing was refused, lost or wrong, its
/// windowed p95 is under the limit, and the backlog did not grow: over the
/// last third of the sends the median number of requests in flight stays
/// within what the limit allows (Little's law).
bool probe_passes(const Phase& phase, const std::vector<bool>& good,
                  const WindowStats& stats, double limit_us) {
  for (bool ok : good) {
    if (!ok) return false;
  }
  const auto& in_flight = phase.result.in_flight;
  const std::vector<double> tail(in_flight.begin() + 2 * in_flight.size() / 3,
                                 in_flight.end());
  const double allowed = phase.rate * limit_us / 1e6 + 16;
  return stats.valid() && stats.p95 <= limit_us && median(tail) <= allowed;
}

/// Least-squares non-decreasing fit (pool adjacent violators).
std::vector<double> monotone_fit(const std::vector<double>& y) {
  std::vector<double> level, weight;
  std::vector<std::size_t> count;
  for (double v : y) {
    level.push_back(v);
    weight.push_back(1);
    count.push_back(1);
    while (level.size() > 1 && level[level.size() - 2] > level.back()) {
      const std::size_t b = level.size() - 1;
      const double w = weight[b - 1] + weight[b];
      level[b - 1] = (level[b - 1] * weight[b - 1] + level[b] * weight[b]) / w;
      weight[b - 1] = w;
      count[b - 1] += count[b];
      level.pop_back();
      weight.pop_back();
      count.pop_back();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < level.size(); ++i) out.insert(out.end(), count[i], level[i]);
  return out;
}

/// The rate where the fitted log p95 first reaches `log_limit`, interpolated
/// in log-log space from the last rung below it (the fixed rate before the
/// first rung); the top rung when the fit never reaches the limit.
double limit_crossing(double base_rate, double base_log_p95,
                      const std::vector<double>& rates,
                      const std::vector<double>& fitted, double log_limit) {
  double prev_rate = base_rate;
  double prev = std::min(base_log_p95, log_limit);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (fitted[i] >= log_limit) {
      const double t = fitted[i] > prev ? (log_limit - prev) / (fitted[i] - prev) : 0;
      return std::exp(std::log(prev_rate) + t * (std::log(rates[i]) - std::log(prev_rate)));
    }
    prev_rate = rates[i];
    prev = fitted[i];
  }
  return rates.empty() ? base_rate : rates.back();
}

/// The traced run's consistency rules: no self time below zero, and the
/// peeled parts within kPeelSlackPct of the request's wire p50 (percentiles
/// do not add exactly, so the sum of part p50s is compared, not equated).
constexpr double kPeelSlackPct = 25;

void check_peel(Result* result, bool routed) {
  std::vector<std::string> problems;
  for (const char* name : {"service.self_us.p50", "net.wire_us", "core.batch_self_ms"}) {
    if (result->get(name) < 0) problems.push_back(std::string(name) + " < 0");
  }
  if (routed && result->get("net.router_hop_us") < 0) {
    problems.push_back("net.router_hop_us < 0");
  }
  if (std::abs(result->get("peel.gap_pct")) > kPeelSlackPct) {
    problems.push_back("peeled parts miss the wire p50 by " +
                       std::to_string(result->get("peel.gap_pct")) + "%");
  }
  result->set("peel.slack_pct", kPeelSlackPct);
  result->set("peel.consistent", problems.empty() ? 1.0 : 0.0);
  for (const std::string& p : problems) result->note("peel: " + p);
}

/// Summed VmHWM of the comma-separated pids, in MiB.
double peak_rss_mib(const std::string& pids) {
  double kib = 0;
  std::size_t start = 0;
  while (start < pids.size()) {
    const std::size_t comma = std::min(pids.find(',', start), pids.size());
    std::ifstream status("/proc/" + pids.substr(start, comma - start) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) kib += std::stod(line.substr(6));
    }
    start = comma + 1;
  }
  return kib / 1024;
}

}  // namespace

int run_header(const Args& args) {
  const ServedInputs inputs =
      make_served_inputs(args.str("workload", ""), args.u64("seed", 1), 1);
  std::printf("%s", scenario_header(inputs).c_str());
  return 0;
}

int run_served(const Args& args) {
  const std::string workload = args.str("workload", "");
  const std::uint64_t seed = args.u64("seed", 1);
  const double seconds = static_cast<double>(args.num("seconds", 10));
  const bool trace = args.num("trace", 0) != 0;
  Result result;
  Tally tally;
  bool valid = true;

  // The calibrated knobs come with the inputs; a one-request build reads them.
  const ServedInputs knobs = make_served_inputs(workload, seed, 1);
  const double fixed_rate = knobs.fixed_rate;
  const double limit_us = knobs.p95_limit_us;

  // A phase whose generator ran late in most windows measured the
  // generator, not the server. Only failing capacity probes may lag: past
  // capacity the server's threads take every core the generator would need.
  auto require_valid = [&](double rate, const WindowStats& stats) {
    if (stats.valid()) return;
    valid = false;
    result.note("invalid: the generator fell behind its schedule in " +
                std::to_string(stats.lagged) + " of " +
                std::to_string(stats.lagged + stats.windows) + " windows at " +
                std::to_string(rate) + " req/s");
  };
  std::unordered_map<std::string, ExpectedFinding> expected;
  auto check = [&](Phase& phase, bool counts) {
    SessionChecks sessions;
    expected_disclosures(phase.inputs, &expected);
    Tally local;
    const std::vector<bool> good = check_phase(phase, expected, counts, &sessions, &local);
    finish_session_checks(knobs, sessions, &tally);
    tally.mismatched += local.mismatched;
    if (tally.first_mismatch.empty()) tally.first_mismatch = local.first_mismatch;
    if (tally.first_problem.empty()) tally.first_problem = local.first_problem;
    if (counts) {
      tally.attempted += phase.wire.size();
      tally.failed += local.mismatched + local.errors + local.lost;
    }
    return good;
  };

  if (!trace) {
    const std::string front = args.str("front", "");
    // 40% of the run at the fixed rate on the freshly booted servers, then
    // 60% for the capacity search (whose probes leave sessions behind).
    Phase fixed = make_phase(workload, seed, "f.", fixed_rate, 0.4 * seconds);
    run_phase(fixed, front, 5.0);
    const std::vector<bool> fixed_good = check(fixed, true);
    const WindowStats at_fixed = window_stats(fixed, kWarmupWindows);
    require_valid(fixed_rate, at_fixed);
    // Verdict goodput: two checked findings (per-disclosure and cumulative)
    // per answered audit, over the phase's sending time.
    std::size_t good_audits = 0;
    for (std::size_t i = 0; i < fixed_good.size(); ++i) {
      good_audits += fixed_good[i] && !fixed.inputs.schedule[fixed.op_index[i]].reset;
    }
    result.set("findings_per_s",
               2.0 * static_cast<double>(good_audits) / fixed.result.send_seconds);
    result.set("p50_us", at_fixed.p50);
    // Not an end-to-end metric (its spread between runs on a shared machine
    // exceeds any usable bound); kept for the capacity search and reported on
    // stderr and as net.wire_p95_us by the traced run.
    result.note("p95 at the fixed rate: " + std::to_string(at_fixed.p95) + " us");
    // Peak RSS of the serving processes by the end of the fixed phase, before
    // any probe (probes add sessions in proportion to their rates).
    result.set("rss_mib", peak_rss_mib(args.str("pids", "")));

    // Capacity: a coarse ladder of offered rates from just above the fixed
    // rate toward the search ceiling until two rungs miss the limit, then
    // bisection probes inside the bracket. Each probe contributes its windowed
    // p95 (a refusal, loss, wrong verdict, growing backlog or unmeasurable
    // window counts as kFailedP95Factor times the limit). A non-decreasing
    // fit through all probes, in rate order, smooths single noisy probes;
    // capacity_rps is where the fit crosses the limit, interpolated in
    // log-log space.
    const double probe_seconds = 0.6 * seconds / kProbes;
    std::map<double, double> log_p95;  // rate -> measured log p95
    int probe_no = 0;
    auto run_probe = [&](double rate) {
      Phase probe = make_phase(workload, seed, "c" + std::to_string(probe_no++) + ".",
                               rate, 0.8 * probe_seconds);
      run_phase(probe, front, 1.0);
      const std::vector<bool> good = check(probe, false);
      const WindowStats stats = window_stats(probe, 0, kProbeWindowSeconds);
      const bool pass = probe_passes(probe, good, stats, limit_us);
      if (pass) tally.attempted += probe.wire.size();
      const double p95 = pass ? stats.p95
                              : std::max(stats.windows != 0 ? stats.p95 : 0.0,
                                         kFailedP95Factor * limit_us);
      log_p95[rate] = std::log(std::max(p95, 1.0));
      std::size_t bad = 0;
      for (bool ok : good) bad += !ok;
      result.note("probe " + std::to_string(static_cast<long>(rate)) + " req/s: " +
                  (pass ? "pass" : "fail") + " (p95 " +
                  std::to_string(static_cast<long>(stats.p95)) + " us over " +
                  std::to_string(stats.windows) + " windows, " + std::to_string(bad) +
                  " refused/lost/wrong, " + std::to_string(stats.lagged) +
                  " lagged windows, " + std::to_string(probe.result.in_flight.back()) +
                  " in flight at the end)");
      return pass;
    };
    double lo = fixed_rate, hi = knobs.capacity_hi;
    int misses = 0;
    for (double rate = fixed_rate * kLadderStep; rate < knobs.capacity_hi && misses < 2;
         rate *= kLadderStep) {
      if (run_probe(rate)) {
        lo = rate;
      } else {
        hi = std::min(hi, rate);
        ++misses;
      }
    }
    while (probe_no < kProbes) {
      const double rate = std::sqrt(lo * hi);
      (run_probe(rate) ? lo : hi) = rate;
    }
    std::vector<double> rates, fitted;
    for (const auto& [rate, value] : log_p95) {
      rates.push_back(rate);
      fitted.push_back(value);
    }
    result.set("capacity_rps",
               limit_crossing(fixed_rate, std::log(at_fixed.p95), rates,
                              monotone_fit(fitted), std::log(limit_us)));
  } else {
    // Warm-up, then an untraced reference on the workload's own front, then
    // the same stream and rate with spans through a shard_router and straight
    // to one worker (same per-worker configuration).
    const double phase_seconds = 0.25 * seconds;
    Phase warm = make_phase(workload, seed, "w.", fixed_rate, 0.1 * seconds);
    run_phase(warm, args.str("front", ""), 5.0);
    check(warm, true);
    Phase plain = make_phase(workload, seed, "u.", fixed_rate, phase_seconds);
    run_phase(plain, args.str("front", ""), 5.0);
    check(plain, true);
    const WindowStats plain_stats = window_stats(plain, 0);
    require_valid(plain.rate, plain_stats);
    const double plain_p50 = plain_stats.p50;

    const bool routed_workload = workload == "routed-sessions";
    Phase routed = make_phase(workload, seed, "r.", fixed_rate, phase_seconds);
    Phase direct = make_phase(workload, seed, "d.", fixed_rate, phase_seconds);
    run_phase(routed, args.str("routed", ""), 5.0);
    check(routed, true);
    run_phase(direct, args.str("direct", ""), 5.0);
    check(direct, true);
    const WindowStats routed_stats = window_stats(routed, 0);
    const WindowStats direct_stats = window_stats(direct, 0);
    require_valid(routed.rate, routed_stats);
    require_valid(direct.rate, direct_stats);
    const double routed_p50 = routed_stats.p50;
    const double direct_p50 = direct_stats.p50;
    // The workload's own request: routed for routed-sessions, direct else.
    const double wire_p50 = routed_workload ? routed_p50 : direct_p50;

    std::vector<double> lag = routed.result.send_lag_us;
    lag.insert(lag.end(), direct.result.send_lag_us.begin(),
               direct.result.send_lag_us.end());
    result.set("loadgen.send_lag_us.p50", quantile(lag, 0.5));
    result.set("loadgen.send_lag_us.p95", quantile(lag, 0.95));
    result.set("obs.trace_overhead_pct", 100.0 * (wire_p50 - plain_p50) / plain_p50);

    // In-process layers over the routed phase's first requests, as sessions.
    PeelStream stream;
    stream.universe = routed.inputs.generated.universe;
    stream.state = routed.inputs.generated.initial_state;
    stream.prior = routed.inputs.generated.prior;
    stream.properties = {routed.inputs.audit_query};
    {
      std::unordered_map<std::uint32_t, unsigned> session_no;
      const auto& gen_stream = routed.inputs.generated.stream;
      for (const Op& op : routed.inputs.schedule) {
        if (stream.log.size() >= kPeelRequests) break;
        if (op.reset) {
          ++session_no[op.user];
          continue;
        }
        stream.log.record_with_answer(
            routed.inputs.users[op.user] + "#" + std::to_string(session_no[op.user]),
            gen_stream[op.request].query_text, gen_stream[op.request].answer);
      }
    }
    LayerSamples samples;
    peel_stream(stream, routed_workload ? 1u : 2u, &samples);
    report_layers(samples, &result);
    const std::vector<double>& service_us = samples.service_us;
    std::vector<double> service_self;
    for (std::size_t i = 0; i < service_us.size(); ++i) {
      service_self.push_back(service_us[i] - samples.request_inner_us[i]);
    }
    const double service_p50 = quantile(service_us, 0.5);
    result.set("service.request_us.p50", service_p50);
    result.set("service.request_us.p95", quantile(service_us, 0.95));
    result.set("service.self_us.p50", quantile(service_self, 0.5));
    result.set("net.wire_us", direct_p50 - service_p50);
    result.set("net.router_hop_us", routed_p50 - direct_p50);
    result.set("net.routed_p50_us", routed_p50);
    result.set("net.direct_p50_us", direct_p50);
    result.set("net.wire_p95_us", routed_workload ? routed_stats.p95 : direct_stats.p95);

    // The peel: innermost parts of one request (their per-request p50s),
    // then the wire and, when the workload is routed, the router hop.
    const double inner_p50 = quantile(samples.request_inner_us, 0.5);
    double sum = inner_p50 + quantile(service_self, 0.5) + (direct_p50 - service_p50);
    if (routed_workload) sum += routed_p50 - direct_p50;
    result.set("peel.sum_us", sum);
    result.set("peel.wire_p50_us", wire_p50);
    result.set("peel.gap_pct", 100.0 * (sum - wire_p50) / wire_p50);
    check_peel(&result, routed_workload);
  }

  const bool correct = tally.mismatched == 0 && valid;
  if (!tally.first_mismatch.empty()) result.note("check failed: " + tally.first_mismatch);
  if (!tally.first_problem.empty()) result.note("first error: " + tally.first_problem);
  // 100 - failed%: the result line's failed/attempted carry the raw
  // counts; the metric is kept positive so relative bounds apply to it.
  result.set("ok_pct", tally.attempted == 0
                           ? 0.0
                           : 100.0 - 100.0 * static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted));
  result.print(correct, tally.attempted, tally.failed);
  return 0;
}

}  // namespace perfbench
