// The offline-audit workload: the paper's retroactive auditor as a closed
// batch in this process. Each pass gives every fixed log a fresh Auditor at
// 2 threads and one audit_many call against all of its family's sensitive
// properties; passes repeat for the run's length. Construction (plus the
// subcube oracle) is set-up, audit_many is the measured work, and every
// finding's (verdict, method, certified) is checked against the per-seed
// digest kept in perfbench/offline_digest.txt.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "layers.h"

namespace perfbench {
namespace {

/// The fixed logs. Request counts keep every log under half a pass (see
/// perfbench/README.md for the calibration).
struct LogSpec {
  const char* name;
  const char* family;
  unsigned records;
  unsigned requests;
  epi::SetBackend backend;
};

constexpr LogSpec kLogs[] = {
    {"hospital@12", "hospital", 12, 16, epi::SetBackend::kAuto},
    {"aggregate@12", "aggregate", 12, 16, epi::SetBackend::kAuto},
    {"collusion@12", "collusion", 12, 12, epi::SetBackend::kAuto},
    {"policy@9", "policy", 9, 64, epi::SetBackend::kAuto},
    {"rectangles@16", "rectangles", 16, 12, epi::SetBackend::kDense},
    {"rectangles@32", "rectangles", 32, 2000, epi::SetBackend::kSymbolic},
};

/// Pass p of a run with --seed n audits the logs of generator seed index
/// (7n + p) mod kSeedIndices, so one run walks a window of distinct inputs
/// and digests exist for every index.
constexpr std::uint64_t kSeedIndices = 256;

std::uint64_t pass_seed_index(std::uint64_t seed, std::uint64_t pass) {
  return (7 * (seed % kSeedIndices) + pass) % kSeedIndices;
}

struct Log {
  const LogSpec* spec;
  epi::workloads::GeneratedWorkload generated;
  epi::AuditLog log;
};

/// False when auditing the draw passes the symbolic cover budget
/// (SubcubeCover::kMaxCubes), which the library reports as length_error.
/// Only the symbolic backend has that budget.
bool fits_backend(const epi::workloads::GeneratedWorkload& generated,
                  epi::SetBackend backend) {
  if (backend != epi::SetBackend::kSymbolic) return true;
  try {
    epi::AuditorOptions options;
    options.backend = backend;
    const epi::Auditor auditor(generated.universe, generated.prior, options);
    (void)auditor.audit_many(generated.to_log(), generated.audit_queries);
    return true;
  } catch (const std::length_error&) {
    return false;
  }
}

std::vector<Log> make_logs(std::uint64_t seed_index) {
  std::vector<Log> logs;
  for (const LogSpec& spec : kLogs) {
    Log log;
    log.spec = &spec;
    epi::workloads::FamilyOptions options;
    options.records = spec.records;
    options.requests = spec.requests;
    const auto* family = epi::workloads::find_family(spec.family);
    // A draw whose sensitive property does not fit the backend (a rectangles
    // occupancy threshold whose C(m, k) cube expansion passes the symbolic
    // cover budget) is refused by the library; the next draw is taken
    // instead. perfbench/README.md lists the refused draws.
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (attempt == 8) throw std::runtime_error("no draw fits the backend");
      options.seed = 1 + seed_index + kSeedIndices * attempt;
      log.generated = generate_traffic(*family, options);
      if (fits_backend(log.generated, spec.backend)) break;
      std::fprintf(stderr, "perfbench: %s draw %llu passes the cover budget; redrawing\n",
                   spec.name, static_cast<unsigned long long>(options.seed));
    }
    log.log = log.generated.to_log();
    logs.push_back(std::move(log));
  }
  return logs;
}

epi::AuditorOptions auditor_options(const LogSpec& spec, unsigned threads) {
  epi::AuditorOptions options;
  options.threads = threads;
  options.backend = spec.backend;
  return options;
}

/// Hash of every finding's (verdict, method, certified), in report order.
std::string digest(const std::vector<epi::AuditReport>& reports) {
  std::uint64_t h = fnv1a("");
  for (const epi::AuditReport& report : reports) {
    for (const auto* section : {&report.per_disclosure, &report.per_user_cumulative}) {
      for (const epi::AuditFinding& f : *section) {
        h = fnv1a(epi::to_string(f.verdict), h);
        h = fnv1a("\x1f" + f.method + (f.certified ? "\x1f" "1\n" : "\x1f" "0\n"), h);
      }
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

std::uint64_t findings_of(const std::vector<epi::AuditReport>& reports) {
  std::uint64_t n = 0;
  for (const epi::AuditReport& r : reports) {
    n += r.per_disclosure.size() + r.per_user_cumulative.size();
  }
  return n;
}

/// "<seed index> <log name> <digest>" lines for one seed index.
std::map<std::string, std::string> load_digests(const std::string& path,
                                                std::uint64_t seed_index) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open digest file '" + path + "'");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t index = 0;
    std::string name, hex;
    fields >> index >> name >> hex;
    if (index == seed_index) out[name] = hex;
  }
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int run_offline(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const long seconds = args.num("seconds", 10);
  const bool trace = args.num("trace", 0) != 0;
  const std::string digest_path = args.str("digest", "perfbench/offline_digest.txt");
  // Three passes per two seconds of the run (a pass audits ~0.6 s of work
  // on the reference machine): many small draws average out how costly any
  // one draw is. The count is fixed so the inputs depend on the seed and the
  // run length only.
  const std::uint64_t passes = static_cast<std::uint64_t>(std::max(3L, 3 * seconds / 2));

  Result result;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_problem;

  // One pass: fresh Auditor per log (set-up), one audit_many (measured).
  struct Pass {
    double setup_s = 0, audit_s = 0;
    std::uint64_t findings = 0, entries = 0;
    std::vector<double> call_us;
  };
  auto run_pass = [&](std::uint64_t index) {
    const std::vector<Log> logs = make_logs(index);
    const std::map<std::string, std::string> expected = load_digests(digest_path, index);
    Pass pass;
    for (const Log& log : logs) {
      const Clock::time_point setup_start = Clock::now();
      const epi::Auditor auditor(log.generated.universe, log.generated.prior,
                                 auditor_options(*log.spec, 2));
      if (log.generated.prior == epi::PriorAssumption::kSubcubeKnowledge) {
        (void)auditor.shared_subcube_oracle();
      }
      const Clock::time_point audit_start = Clock::now();
      const std::vector<epi::AuditReport> reports =
          auditor.audit_many(log.log, log.generated.audit_queries);
      const Clock::time_point audit_end = Clock::now();
      pass.setup_s += std::chrono::duration<double>(audit_start - setup_start).count();
      pass.audit_s += std::chrono::duration<double>(audit_end - audit_start).count();
      pass.call_us.push_back(micros_between(audit_start, audit_end));
      pass.entries += log.log.size();
      const std::uint64_t findings = findings_of(reports);
      pass.findings += findings;
      attempted += findings;
      const auto it = expected.find(log.spec->name);
      const std::string got = digest(reports);
      if (it == expected.end() || it->second != got) {
        failed += findings;
        if (first_problem.empty()) {
          first_problem = std::string(log.spec->name) + " findings digest " + got +
                          " differs from the recorded " +
                          (it == expected.end() ? std::string("<none>") : it->second);
        }
      }
    }
    return pass;
  };

  double findings = 0, entries = 0, audit_s = 0;
  std::vector<double> setup, pass_us;
  const std::uint64_t untraced = trace ? (passes + 1) / 2 : passes;
  for (std::uint64_t p = 0; p < untraced; ++p) {
    const Pass pass = run_pass(pass_seed_index(seed, p));
    findings += static_cast<double>(pass.findings);
    entries += static_cast<double>(pass.entries);
    audit_s += pass.audit_s;
    setup.push_back(pass.setup_s);
    pass_us.push_back(pass.audit_s * 1e6);
  }

  if (!trace) {
    result.set("findings_per_s", findings / audit_s);
    result.set("capacity_rps", entries / audit_s);
    // Latency of one audit round: the six audit_many calls of a pass.
    result.set("p50_us", quantile(pass_us, 0.5));
    result.set("setup_s", median(setup));
    result.set("rss_mib", peak_rss_mib());
  } else {
    // The same passes again, with a span kept in memory per audit_many call;
    // the traced run spends the rest of its time on the layer peel below.
    struct Span {
      const char* name;
      double start_us, duration_us;
    };
    std::vector<Span> spans;
    double traced_findings = 0, traced_audit_s = 0;
    const Clock::time_point traced_start = Clock::now();
    for (std::uint64_t p = 0; p < untraced; ++p) {
      const Pass pass = run_pass(pass_seed_index(seed, p));
      for (double us : pass.call_us) {
        spans.push_back(
            Span{"core.audit_many", micros_between(traced_start, Clock::now()), us});
      }
      traced_findings += static_cast<double>(pass.findings);
      traced_audit_s += pass.audit_s;
    }
    const double plain_fps = findings / audit_s;
    const double traced_fps = traced_findings / traced_audit_s;
    result.set("obs.trace_overhead_pct", 100.0 * (plain_fps - traced_fps) / plain_fps);
    result.note("kept " + std::to_string(spans.size()) + " audit_many spans");

    const std::vector<Log> logs = make_logs(pass_seed_index(seed, 0));
    LayerSamples samples;
    for (const Log& log : logs) {
      PeelStream stream;
      stream.universe = log.generated.universe;
      stream.state = log.generated.initial_state;
      stream.prior = log.generated.prior;
      stream.backend = log.spec->backend;
      stream.properties = log.generated.audit_queries;
      stream.log = log.log;
      stream.replay_sessions = log.spec->backend != epi::SetBackend::kSymbolic;
      peel_stream(stream, 0, &samples);
    }
    report_layers(samples, &result);
    // The offline workload never enters the service or the wire.
    for (const char* name :
         {"service.request_us.p50", "service.request_us.p95", "service.self_us.p50",
          "net.wire_us", "net.router_hop_us", "net.routed_p50_us",
          "net.direct_p50_us", "net.wire_p95_us", "loadgen.send_lag_us.p50",
          "loadgen.send_lag_us.p95",
          "peel.sum_us", "peel.wire_p50_us", "peel.gap_pct", "peel.slack_pct"}) {
      result.set(name, 0.0);
    }
    result.set("peel.consistent", samples.audit_1t_ms - samples.compile_ms -
                                              samples.stage_ms >= 0
                                      ? 1.0
                                      : 0.0);
  }
  result.set("ok_pct", attempted == 0 ? 0.0
                                      : 100.0 - 100.0 * static_cast<double>(failed) /
                                                    static_cast<double>(attempted));
  if (!first_problem.empty()) result.note(first_problem);
  result.print(failed == 0, attempted, failed);
  return 0;
}

int run_digest(const Args&) {
  std::printf("# offline-audit findings digests: <seed index> <log> <fnv1a-64>\n"
              "# regenerate: epi_perfbench digest > perfbench/offline_digest.txt\n");
  for (std::uint64_t index = 0; index < kSeedIndices; ++index) {
    for (const Log& log : make_logs(index)) {
      const epi::Auditor auditor(log.generated.universe, log.generated.prior,
                                 auditor_options(*log.spec, 1));
      std::printf("%llu %s %s\n", static_cast<unsigned long long>(index),
                  log.spec->name,
                  digest(auditor.audit_many(log.log, log.generated.audit_queries))
                      .c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int run_calibrate(const Args& args) {
  const std::vector<Log> logs = make_logs(args.u64("seed", 1) % kSeedIndices);
  for (const Log& log : logs) {
    for (unsigned threads : {1u, 2u}) {
      const Clock::time_point t0 = Clock::now();
      const epi::Auditor auditor(log.generated.universe, log.generated.prior,
                                 auditor_options(*log.spec, threads));
      if (log.generated.prior == epi::PriorAssumption::kSubcubeKnowledge) {
        (void)auditor.shared_subcube_oracle();
      }
      const Clock::time_point t1 = Clock::now();
      const auto reports = auditor.audit_many(log.log, log.generated.audit_queries);
      const Clock::time_point t2 = Clock::now();
      std::printf("%-14s threads=%u entries=%zu findings=%llu setup_ms=%.2f audit_ms=%.2f\n",
                  log.spec->name, threads, log.log.size(),
                  static_cast<unsigned long long>(findings_of(reports)),
                  micros_between(t0, t1) / 1000, micros_between(t1, t2) / 1000);
    }
  }
  return 0;
}

}  // namespace perfbench
