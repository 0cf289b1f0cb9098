// Experiment E14 (extension): audit-service throughput — the request-level
// measurement for the concurrent front-end (src/service/). Replays a
// synthetic hospital log through AuditService from concurrent client
// threads and reports requests/sec along two axes:
//   1. client concurrency (1..8 threads, each with its own user namespace so
//      sessions do not serialize across clients);
//   2. cold vs warm verdict cache — the first pass decides everything in the
//      engine, the second is the steady state a long-running service sees,
//      with the measured hit-rate alongside.
//
//   3. batch admission — submit_many/process_many of the whole log versus
//      a per-request process() loop from one client (queueing amortized,
//      same verdicts).
//
// One pass is only ~80 requests (well under a millisecond warm), so every
// row reports the median of kPasses passes, each on a fresh service: one
// pass alone moves by tens of percent with scheduler noise.
//
// `--rate-only` prints a single "rate=<requests/sec>" line (warm cache,
// 4 client threads) for CI trend lines and A/B runs.
//
// `--json` replaces the text report with the shared bench_json.h schema;
// BENCH_service.json at the repo root is the checked-in baseline the CI
// perf gate diffs (tools/bench_compare.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/workload.h"
#include "service/audit_service.h"

using namespace epi;

namespace {

/// Passes per row; odd, so the median is one measured pass.
constexpr int kPasses = 101;

double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

WorkloadOptions bench_workload_options() {
  WorkloadOptions options;
  options.patients = 6;
  options.queries = 80;
  options.seed = 0xAB5 + 14;
  return options;
}

service::ServiceOptions bench_service_options(unsigned workers) {
  service::ServiceOptions options;
  options.auditor.enable_sos = false;  // throughput mode: no SDP stage
  options.auditor.ascent.multistarts = 16;
  options.workers = workers;
  options.queue_capacity = 4096;
  options.cache_capacity = 8192;
  return options;
}

std::unique_ptr<service::AuditService> make_service(const Workload& workload,
                                                    unsigned workers) {
  std::unique_ptr<service::AuditService> out;
  const Status s = service::AuditService::try_create(
      workload.universe, workload.database.state(),
      workload.audit_candidates.front(), PriorAssumption::kProduct,
      bench_service_options(workers), &out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    std::exit(1);
  }
  return out;
}

/// Replays the whole log once per client thread (distinct user namespaces)
/// and returns requests per second.
double run_pass(service::AuditService& service, const Workload& workload,
                unsigned clients) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&service, &workload, c] {
      for (const Disclosure& entry : workload.log.entries()) {
        service::AuditRequest request;
        request.user = entry.user + "#" + std::to_string(c);
        request.query_text = entry.query_text;
        request.answer = entry.answer;  // replayed-log mode
        service.process(std::move(request));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(clients * workload.log.size()) / seconds;
}

double hit_rate_delta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after) {
  const double hits = static_cast<double>(
      after.counter("service.cache.hits") - before.counter("service.cache.hits"));
  const double misses =
      static_cast<double>(after.counter("service.cache.misses") -
                          before.counter("service.cache.misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// The whole log as one request batch (replayed-log mode, one client).
std::vector<service::AuditRequest> log_batch(const Workload& workload) {
  std::vector<service::AuditRequest> requests;
  requests.reserve(workload.log.size());
  for (const Disclosure& entry : workload.log.entries()) {
    service::AuditRequest request;
    request.user = entry.user;
    request.query_text = entry.query_text;
    request.answer = entry.answer;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload workload = make_hospital_workload(bench_workload_options());

  if (argc > 1 && std::strcmp(argv[1], "--rate-only") == 0) {
    std::unique_ptr<service::AuditService> svc = make_service(workload, 2);
    run_pass(*svc, workload, 4);  // cold pass: warm the cache and allocator
    std::printf("rate=%.0f\n", run_pass(*svc, workload, 4));
    svc->shutdown();
    return 0;
  }

  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  bench::JsonReport report("service_throughput");

  if (!json) {
    std::printf("=== E14 (extension): audit service throughput ===\n\n");
    std::printf("workload: %u records, %zu logged queries, audit query \"%s\",\n"
                "product prior, 2 service workers\n\n",
                workload.universe.size(), workload.log.size(),
                workload.audit_candidates.front().c_str());
    std::printf("%8s %9s %12s %12s %14s\n", "clients", "requests",
                "cold req/s", "warm req/s", "warm hit-rate");
  }

  for (unsigned clients : {1u, 2u, 4u, 8u}) {
    std::vector<double> cold, warm, hit_rate;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::unique_ptr<service::AuditService> svc = make_service(workload, 2);
      cold.push_back(run_pass(*svc, workload, clients));
      const obs::MetricsSnapshot before = svc->metrics_snapshot();
      warm.push_back(run_pass(*svc, workload, clients));
      hit_rate.push_back(hit_rate_delta(before, svc->metrics_snapshot()));
      svc->shutdown();
    }
    const double cold_rate = median(cold), warm_rate = median(warm);
    const double hit_pct = median(hit_rate) * 100.0;
    if (!json) {
      std::printf("%8u %9zu %12.0f %12.0f %13.1f%%\n", clients,
                  static_cast<std::size_t>(clients) * workload.log.size(),
                  cold_rate, warm_rate, hit_pct);
    }
    report.row("client_scaling")
        .field("clients", clients)
        .field("requests",
               static_cast<std::size_t>(clients) * workload.log.size())
        .field("cold_requests_per_sec", cold_rate, 0)
        .field("warm_requests_per_sec", warm_rate, 0)
        .field("warm_hit_rate_pct", hit_pct, 1);
  }

  // --- batch admission: process_many vs a per-request loop, one client ----
  {
    const double n = static_cast<double>(workload.log.size());
    std::vector<double> loop, batch;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::unique_ptr<service::AuditService> svc = make_service(workload, 2);
      run_pass(*svc, workload, 1);  // warm cache and allocator

      std::vector<service::AuditRequest> requests = log_batch(workload);
      auto t0 = std::chrono::steady_clock::now();
      for (service::AuditRequest& request : requests) {
        svc->process(request);
      }
      loop.push_back(n / std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());

      t0 = std::chrono::steady_clock::now();
      const std::vector<service::AuditResponse> responses =
          svc->process_many(std::move(requests));
      batch.push_back(n / std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      svc->shutdown();
    }
    // The speedup is the ratio of the two reported medians, so the row
    // agrees with itself.
    const double loop_rate = median(loop), batch_rate = median(batch);
    if (!json) {
      std::printf(
          "\n--- batch admission: %zu-request log, warm cache ---\n\n"
          "%12s %14s\n%12s %14.0f\n%12s %14.0f   (%.2fx)\n",
          workload.log.size(), "mode", "requests/sec", "loop", loop_rate,
          "batch", batch_rate, batch_rate / loop_rate);
    }
    report.row("batch_admission")
        .field("requests", workload.log.size())
        .field("loop_requests_per_sec", loop_rate, 0)
        .field("batch_requests_per_sec", batch_rate, 0)
        .field("speedup", batch_rate / loop_rate);
  }

  if (json) {
    report.print();
    return 0;
  }

  std::printf(
      "\nReading: the cold pass pays one engine decision per distinct\n"
      "(disclosure, conjunction) pair; the warm pass is the steady state of\n"
      "a long-running service, where the sharded verdict cache serves repeat\n"
      "decisions and throughput is bounded by session bookkeeping and the\n"
      "request queue. Verdicts are byte-identical to the offline auditor in\n"
      "every configuration (tests/service_test.cpp pins this).\n");
  return 0;
}
