// Experiment E13 (extension): end-to-end audit throughput on synthetic
// hospital workloads — the systems-level measurement a deployment would
// care about. Two axes:
//   1. prior family (single-threaded): disclosures audited per second plus
//      the verdict mix, documenting how much each assumption clears in a
//      realistic query mix (complements E5/E12);
//   2. worker threads (product prior, 200-disclosure log): the
//      DecisionEngine batch path fanning disclosures out across the pool,
//      reported as audits/sec and speedup over one thread;
//   3. batch sweep: Auditor::audit_many versus a loop of single audit()
//      calls over the same property batch — the one-log-many-properties
//      shape (policy streams, aggregate-query audits) where the batch API
//      amortizes disclosure compilation; reported per batch size and prior;
//   4. tracing (product prior): the same workload with the span sink off
//      versus installed, reporting the tracing overhead — the off row is
//      the number the <2% no-op gate watches;
//   5. cold subcube audit: a fresh Auditor's first audit_many of the
//      policy family at 11 records, which builds the subcube interval
//      oracle and every property's Delta classes, with the process's
//      peak-RSS growth alongside (run first, while the peak is still low).
//
// `--rate-only` prints a single "rate=<audits/sec>" line (tracing off,
// product prior) for CI to diff against an EPI_OBS_NOOP build.
//
// `--json` replaces the text report with a machine-readable JSON document
// covering all five axes in the shared bench_json.h schema; BENCH_audit.json
// at the repo root is the checked-in baseline the CI perf gate diffs
// against (see tools/bench_compare.py).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/auditor.h"
#include "core/workload.h"
#include "obs/trace.h"
#include "workloads/family.h"
#include "worlds/world_set.h"

using namespace epi;

namespace {

AuditorOptions throughput_options(unsigned threads) {
  AuditorOptions options;
  options.enable_sos = false;  // throughput mode: no SDP stage
  options.ascent.multistarts = 16;
  options.threads = threads;
  return options;
}

/// Audits every candidate record; returns disclosures+conjunctions per sec.
double measure(const Workload& workload, const Auditor& auditor,
               std::size_t* safe = nullptr, std::size_t* unsafe = nullptr,
               std::size_t* unknown = nullptr) {
  std::size_t audited = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& record : workload.audit_candidates) {
    const AuditReport report = auditor.audit(workload.log, record);
    if (safe) *safe += report.count(Verdict::kSafe);
    if (unsafe) *unsafe += report.count(Verdict::kUnsafe);
    if (unknown) *unknown += report.count(Verdict::kUnknown);
    audited += report.per_disclosure.size() + report.per_user_cumulative.size();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(audited) / seconds;
}

Workload rate_workload() {
  WorkloadOptions options;
  options.patients = 8;
  options.queries = 120;
  options.seed = 0xAB5 + 8;
  return make_hospital_workload(options);
}

/// A registered family's workload at its default knobs (seeded away from
/// the golden snapshots), with `records` overriding the universe size
/// (0: the family default). Reports on stderr and returns false on failure.
bool generate_family(const char* name, unsigned records,
                     workloads::GeneratedWorkload* out) {
  const workloads::WorkloadFamily* family = workloads::find_family(name);
  workloads::FamilyOptions options;
  options.seed = 0xAB5;
  options.records = records;
  if (family == nullptr || !family->generate(options, out).ok()) {
    std::fprintf(stderr, "family generation failed: %s\n", name);
    return false;
  }
  return true;
}

/// The process's peak resident set so far, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cycles the workload's audit candidates (negating every third) into a
/// batch of `count` distinct-looking sensitive properties.
std::vector<std::string> property_batch(const Workload& workload,
                                        std::size_t count) {
  std::vector<std::string> queries;
  const std::vector<std::string>& base = workload.audit_candidates;
  for (std::size_t i = 0; queries.size() < count; ++i) {
    const std::string& q = base[i % base.size()];
    queries.push_back(i % 3 == 2 ? "!(" + q + ")" : q);
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rate-only") == 0) {
    const Workload workload = rate_workload();
    Auditor auditor(workload.universe, PriorAssumption::kProduct,
                    throughput_options(1));
    measure(workload, auditor);  // warm-up: caches, allocator, frequency
    std::printf("rate=%.0f\n", measure(workload, auditor));
    return 0;
  }
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  bench::JsonReport report("audit_throughput");
  if (!json) {
    std::printf("=== E13 (extension): offline audit throughput ===\n\n");
  }

  // Cold subcube audit, first so the peak-RSS growth is this row's own.
  // Each pass is one fresh Auditor's first audit_many; one pass takes a
  // few milliseconds, so the row reports the median of kColdPasses.
  {
    constexpr int kColdPasses = 21;
    workloads::GeneratedWorkload generated;
    if (!generate_family("policy", 11, &generated)) return 1;
    const AuditLog log = generated.to_log();
    const double rss_before = peak_rss_mib();
    std::vector<double> rates;
    for (int pass = 0; pass < kColdPasses; ++pass) {
      Auditor auditor(generated.universe, generated.prior,
                      throughput_options(1));
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<AuditReport> reports =
          auditor.audit_many(log, generated.audit_queries);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      std::size_t audited = 0;
      for (const AuditReport& r : reports) {
        audited += r.per_disclosure.size() + r.per_user_cumulative.size();
      }
      rates.push_back(static_cast<double>(audited) / seconds);
    }
    std::nth_element(rates.begin(), rates.begin() + kColdPasses / 2,
                     rates.end());
    const double rate = rates[kColdPasses / 2];
    const double rss_growth = peak_rss_mib() - rss_before;
    if (!json) {
      std::printf(
          "cold subcube audit (policy, %u records, %zu requests): %.0f "
          "audits/sec, peak RSS +%.1f MiB\n\n",
          generated.universe.size(), log.size(), rate, rss_growth);
    }
    report.row("cold_subcube")
        .field("family", "policy")
        .field("records", generated.universe.size())
        .field("requests", log.size())
        .field("audits_per_sec", rate, 0)
        .field("peak_rss_growth_mib", rss_growth, 1);
  }

  if (!json) {
    std::printf("%9s %8s %18s %12s | %6s %7s %8s\n", "patients", "queries",
                "prior", "audits/sec", "safe", "unsafe", "unknown");
  }

  for (unsigned patients : {4u, 6u, 8u}) {
    WorkloadOptions options;
    options.patients = patients;
    options.queries = 120;
    options.seed = 0xAB5 + patients;
    Workload workload = make_hospital_workload(options);

    for (PriorAssumption prior :
         {PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
          PriorAssumption::kLogSupermodular}) {
      Auditor auditor(workload.universe, prior, throughput_options(1));
      std::size_t safe = 0, unsafe = 0, unknown = 0;
      const double rate = measure(workload, auditor, &safe, &unsafe, &unknown);
      if (!json) {
        std::printf("%9u %8d %18s %12.0f | %6zu %7zu %8zu\n", patients,
                    options.queries, to_string(prior).c_str(), rate, safe,
                    unsafe, unknown);
      }
      report.row("prior_families")
          .field("patients", patients)
          .field("queries", options.queries)
          .field("prior", to_string(prior))
          .field("audits_per_sec", rate, 0)
          .field("safe", safe)
          .field("unsafe", unsafe)
          .field("unknown", unknown);
    }
  }

  if (!json) {
    std::printf(
        "\n--- thread scaling: product prior, 200-disclosure log ---\n\n");
  }
  WorkloadOptions scaling;
  scaling.patients = 8;
  scaling.queries = 200;
  scaling.seed = 0xAB5;
  Workload workload = make_hospital_workload(scaling);

  if (!json) std::printf("%9s %12s %9s\n", "threads", "audits/sec", "speedup");
  double base_rate = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Auditor auditor(workload.universe, PriorAssumption::kProduct,
                    throughput_options(threads));
    const double rate = measure(workload, auditor);
    if (threads == 1) base_rate = rate;
    if (!json) {
      std::printf("%9u %12.0f %8.2fx\n", threads, rate, rate / base_rate);
    }
    report.row("thread_scaling")
        .field("threads", threads)
        .field("audits_per_sec", rate, 0)
        .field("speedup", rate / base_rate);
  }

  if (!json) {
    std::printf(
        "\n--- batch sweep: audit_many vs single-audit loop, one log, N "
        "properties ---\n\n");
    std::printf("%18s %6s %14s %14s %9s\n", "prior", "batch", "loop aud/s",
                "batch aud/s", "speedup");
  }
  for (PriorAssumption prior :
       {PriorAssumption::kUnrestricted, PriorAssumption::kProduct}) {
    Auditor auditor(workload.universe, prior, throughput_options(1));
    for (std::size_t batch : {8u, 64u, 256u}) {
      const std::vector<std::string> properties =
          property_batch(workload, batch);
      // Warm-up pass (allocator, compile caches live only per call, but the
      // first pass still settles frequency and page faults).
      auditor.audit_many(workload.log, properties);

      // Best of three timed passes per side: a single quarter-second pass
      // swings >10% on shared runners, which is exactly the perf-gate
      // tolerance. The minimum is the least-interfered measurement.
      double loop_s = 1e30;
      double batch_s = 1e30;
      std::size_t n_reports = 0;
      for (int pass = 0; pass < 3; ++pass) {
        auto t0 = std::chrono::steady_clock::now();
        for (const std::string& q : properties) auditor.audit(workload.log, q);
        loop_s = std::min(
            loop_s,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count());

        t0 = std::chrono::steady_clock::now();
        const std::vector<AuditReport> reports =
            auditor.audit_many(workload.log, properties);
        batch_s = std::min(
            batch_s,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count());
        n_reports = reports.size();
      }

      const double n = static_cast<double>(n_reports);
      if (!json) {
        std::printf("%18s %6zu %14.0f %14.0f %8.2fx\n",
                    to_string(prior).c_str(), batch, n / loop_s, n / batch_s,
                    batch_s > 0 ? loop_s / batch_s : 0.0);
      }
      report.row("batch_sweep")
          .field("prior", to_string(prior))
          .field("batch", batch)
          .field("single_audits_per_sec", n / loop_s, 0)
          .field("batch_audits_per_sec", n / batch_s, 0)
          .field("speedup", loop_s / batch_s);
    }
  }

  if (!json) {
    std::printf(
        "\n--- workload families: registry defaults, batch audit of each\n"
        "    family's own sensitive properties under its own prior ---\n\n");
    std::printf("%12s %8s %9s %18s %12s\n", "family", "records", "requests",
                "prior", "audits/sec");
  }
  // One row per registered family at its default knobs (seeded away from the
  // golden snapshots), plus a rectangles row at the 32-coordinate symbolic
  // ceiling. The policy family stays at 8 records (the cold_subcube row
  // above covers 11); dense rectangles at 20 so the 2^n-bit sets don't
  // dominate the whole bench (the symbolic row covers the large-n regime
  // far faster than dense n=24 would).
  {
    struct FamilyPoint {
      const char* family;
      unsigned records;  // 0: the family default
    };
    const FamilyPoint points[] = {{"hospital", 0}, {"aggregate", 0},
                                  {"policy", 8},   {"collusion", 0},
                                  {"rectangles", 20}, {"rectangles", 32}};
    for (const FamilyPoint& point : points) {
      workloads::GeneratedWorkload generated;
      if (!generate_family(point.family, point.records, &generated)) return 1;
      Auditor auditor(generated.universe, generated.prior,
                      throughput_options(1));
      const AuditLog log = generated.to_log();
      auditor.audit_many(log, generated.audit_queries);  // warm-up
      double best_s = 1e30;
      std::size_t audited = 0;
      for (int pass = 0; pass < 3; ++pass) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<AuditReport> reports =
            auditor.audit_many(log, generated.audit_queries);
        best_s = std::min(
            best_s,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count());
        audited = 0;
        for (const AuditReport& r : reports) {
          audited += r.per_disclosure.size() + r.per_user_cumulative.size();
        }
      }
      const double rate = static_cast<double>(audited) / best_s;
      if (!json) {
        std::printf("%12s %8u %9zu %18s %12.0f\n", point.family,
                    generated.universe.size(), log.size(),
                    to_string(generated.prior).c_str(), rate);
      }
      report.row("workload_families")
          .field("family", point.family)
          .field("records", generated.universe.size())
          .field("requests", log.size())
          .field("prior", to_string(generated.prior))
          .field("audits_per_sec", rate, 0);
    }
  }

  if (!json) {
    std::printf(
        "\n--- fused kernel axis: Thm. 3.11 checks on audit-sized sets "
        "---\n\n");
  }
  {
    // The unrestricted-prior fast path is one disjointness scan plus one
    // union_is_universe scan per (A, B) pair; before the dense_bits kernel
    // the second disjunct allocated A∪B and rescanned it. Same verdicts,
    // measured as checks/sec on random 16-coordinate pairs.
    Rng rng(0xE13);
    std::vector<WorldSet> as, bs;
    for (int i = 0; i < 64; ++i) {
      as.push_back(WorldSet::random(16, rng));
      bs.push_back(WorldSet::random(16, rng));
    }
    const int rounds = 2000;
    bool sink = false;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < as.size(); ++i) {
        sink ^= as[i].disjoint_with(bs[i]) || (as[i] | bs[i]).is_universe();
      }
    }
    const double naive_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < as.size(); ++i) {
        sink ^= as[i].disjoint_with(bs[i]) || union_is_universe(as[i], bs[i]);
      }
    }
    const double fused_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double total = static_cast<double>(rounds) * as.size();
    report.row("fused_kernels")
        .field("naive_checks_per_sec", total / naive_s, 0)
        .field("fused_checks_per_sec", total / fused_s, 0)
        .field("speedup", naive_s / fused_s);
    if (!json) {
      std::printf("%12s %14s\n", "variant", "checks/sec");
      std::printf("%12s %14.0f\n", "naive", total / naive_s);
      std::printf("%12s %14.0f   (%.2fx, sink=%d)\n", "fused", total / fused_s,
                  naive_s / fused_s, sink ? 1 : 0);
    }
  }

  if (!json) {
    std::printf("\n--- tracing overhead: product prior, 8 patients ---\n\n");
  }
  const Workload traced_workload = rate_workload();
  Auditor traced_auditor(traced_workload.universe, PriorAssumption::kProduct,
                         throughput_options(1));
  measure(traced_workload, traced_auditor);  // warm-up
  const double rate_off = measure(traced_workload, traced_auditor);
  auto trace = std::make_shared<obs::Trace>();
  obs::install_trace(trace);
  const double rate_on = measure(traced_workload, traced_auditor);
  obs::install_trace(nullptr);
  report.row("tracing")
      .field("off_audits_per_sec", rate_off, 0)
      .field("on_audits_per_sec", rate_on, 0)
      .field("spans", trace->size())
      .field("overhead_pct", (rate_off / rate_on - 1.0) * 100.0, 1);

  if (json) {
    report.print();
    return 0;
  }

  std::printf("%12s %12s\n", "tracing", "audits/sec");
  std::printf("%12s %12.0f\n", "off", rate_off);
  std::printf("%12s %12.0f   (%zu spans, %+.1f%%)\n", "on", rate_on,
              trace->size(), (rate_off / rate_on - 1.0) * 100.0);

  std::printf(
      "\nReading: unrestricted-prior audits are instant (Theorem 3.11 is a\n"
      "set test); product-prior audits pay for the optimizer only on the\n"
      "instances the combinatorial criteria leave open; the supermodular\n"
      "pipeline sits in between and leaves a small unknown zone. Rates\n"
      "include per-user conjunction audits (Section 3.3). Thread scaling\n"
      "reflects hardware parallelism — reports stay byte-identical at every\n"
      "thread count.\n");
  return 0;
}
