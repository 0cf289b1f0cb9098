// The audit service daemon: loads a scenario, boots an epi::service
// AuditService and serves the JSON-lines wire protocol (src/service/
// protocol.h) over any mix of Unix-domain and TCP listeners, multiplexed by
// one epoll event loop (src/net/). Pair with audit_client, put a
// shard_router in front of N of these, or talk to it with anything that can
// write '\n'-framed JSON to a socket:
//
//   $ audit_server --listen unix:/tmp/epi.sock --listen tcp:127.0.0.1:7171 &
//   $ printf '{"op": "audit", "id": 1, "user": "alice", "query": "bob_hiv"}\n' |
//       socat - UNIX-CONNECT:/tmp/epi.sock
//
// Usage: audit_server [--listen unix:PATH|tcp:HOST:PORT]...
//                     [--scenario FILE] [--workers N] [--queue-capacity N]
//                     [--cache-capacity N] [--online truthful|simulatable]
//                     [--default-deadline-ms N] [--idle-timeout-ms N]
//
// --listen repeats; every listener serves simultaneously. `tcp:HOST:0` gets
// a kernel-assigned port, printed as `audit_server: listening on ...` so
// scripts can scrape the dialable address. A stale Unix socket file left by
// a crash is probed and unlinked; a live server on it is a startup error.
//
// The scenario file (language: src/core/scenario.h) supplies the record
// universe, the database state and — from its last `audit` directive — the
// audited property and prior the service enforces. Without --scenario the
// built-in demonstration scenario is used.
//
// Signals: SIGUSR1 dumps the service metrics registry to stderr; SIGINT /
// SIGTERM (or a `shutdown` request) stop accepting connections, drain every
// accepted request and exit 0. Errors print a Status on stderr: exit 2 for
// bad flags, 1 for runtime failures.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "net/address.h"
#include "net/service_server.h"
#include "obs/export.h"
#include "service/audit_service.h"
#include "util/status.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_metrics = 0;

void handle_stop(int) { g_stop = 1; }
void handle_usr1(int) { g_dump_metrics = 1; }

const char kDemoScenario[] = R"(# Built-in demonstration scenario
record bob_hiv
record bob_transfusion
record bob_hepatitis
insert bob_transfusion
insert bob_hiv
prior product
audit bob_hiv
)";

constexpr char kUsage[] =
    "usage: audit_server [--listen unix:PATH|tcp:HOST:PORT]...\n"
    "                    [--scenario FILE] [--workers N] [--queue-capacity N]\n"
    "                    [--cache-capacity N]\n"
    "                    [--online truthful|simulatable]\n"
    "                    [--default-deadline-ms N] [--idle-timeout-ms N]\n"
    "  --listen ADDR            listen address (repeatable; unix: and tcp:\n"
    "                           listeners serve simultaneously; tcp HOST:0\n"
    "                           picks a free port, printed on startup).\n"
    "                           Default unix:/tmp/epi_audit.sock\n"
    "  --scenario FILE          scenario script supplying records, state and\n"
    "                           the audited property (default: built-in demo)\n"
    "  --workers N              service worker threads (default 2)\n"
    "  --queue-capacity N       bounded request queue; beyond it submissions\n"
    "                           are rejected with ResourceExhausted\n"
    "  --cache-capacity N       distinct disclosed sets memoized with their\n"
    "                           verdicts (0 keeps none)\n"
    "  --online STRATEGY        deny-unsafe online auditing: truthful leaks\n"
    "                           through denials, simulatable does not\n"
    "  --default-deadline-ms N  deadline for requests that carry none\n"
    "  --idle-timeout-ms N      drop connections idle this long (0 = never)\n";

struct ServerOptions {
  std::vector<std::string> listen_specs;
  const char* scenario_path = nullptr;
  long idle_timeout_ms = 0;
  epi::service::ServiceOptions service;
  bool help = false;
};

epi::Status parse_args(int argc, char** argv, ServerOptions* out) {
  auto next_value = [&](int& i, const char* flag, const char** value) {
    if (i + 1 >= argc) {
      return epi::Status::InvalidArgument(std::string(flag) + " needs a value");
    }
    *value = argv[++i];
    return epi::Status::Ok();
  };
  auto next_count = [&](int& i, const char* flag, long* value) {
    const char* text = nullptr;
    if (const epi::Status s = next_value(i, flag, &text); !s.ok()) return s;
    char* end = nullptr;
    *value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || *value < 0) {
      return epi::Status::InvalidArgument(std::string(flag) +
                                          " needs a non-negative integer");
    }
    return epi::Status::Ok();
  };
  for (int i = 1; i < argc; ++i) {
    long n = 0;
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      out->help = true;
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      if (const epi::Status s = next_value(i, "--listen", &value); !s.ok()) return s;
      out->listen_specs.push_back(value);
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      if (const epi::Status s = next_value(i, "--scenario", &value); !s.ok()) return s;
      out->scenario_path = value;
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (const epi::Status s = next_count(i, "--workers", &n); !s.ok()) return s;
      out->service.workers = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      if (const epi::Status s = next_count(i, "--queue-capacity", &n); !s.ok()) return s;
      out->service.queue_capacity = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      if (const epi::Status s = next_count(i, "--cache-capacity", &n); !s.ok()) return s;
      out->service.cache_capacity = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--online") == 0) {
      if (const epi::Status s = next_value(i, "--online", &value); !s.ok()) return s;
      if (std::strcmp(value, "truthful") == 0) {
        out->service.online_strategy = epi::OnlineStrategy::kTruthfulWhenSafe;
      } else if (std::strcmp(value, "simulatable") == 0) {
        out->service.online_strategy = epi::OnlineStrategy::kSimulatable;
      } else {
        return epi::Status::InvalidArgument(
            "--online must be 'truthful' or 'simulatable'");
      }
    } else if (std::strcmp(argv[i], "--default-deadline-ms") == 0) {
      if (const epi::Status s = next_count(i, "--default-deadline-ms", &n); !s.ok())
        return s;
      out->service.default_deadline = std::chrono::milliseconds(n);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      if (const epi::Status s = next_count(i, "--idle-timeout-ms", &n); !s.ok())
        return s;
      out->idle_timeout_ms = n;
    } else {
      return epi::Status::InvalidArgument(std::string("unknown flag '") +
                                          argv[i] + "'");
    }
  }
  if (out->listen_specs.empty()) {
    out->listen_specs.push_back("unix:/tmp/epi_audit.sock");
  }
  return epi::Status::Ok();
}

epi::Status load_scenario(const ServerOptions& options, epi::ScenarioResult* out) {
  epi::AuditorOptions auditor = options.service.auditor;
  auditor.threads = 1;
  if (options.scenario_path != nullptr) {
    std::ifstream file(options.scenario_path);
    if (!file) {
      return epi::Status::InvalidArgument(
          std::string("cannot open scenario file '") + options.scenario_path + "'");
    }
    return epi::try_run_scenario(file, out, auditor);
  }
  std::istringstream demo{std::string(kDemoScenario)};
  return epi::try_run_scenario(demo, out, auditor);
}

epi::Status run(const ServerOptions& options) {
  // The scenario supplies the universe and database state; its last `audit`
  // directive names the property (and prior) this service enforces.
  epi::ScenarioResult scenario;
  if (const epi::Status s = load_scenario(options, &scenario); !s.ok()) return s;
  if (scenario.reports.empty()) {
    return epi::Status::InvalidArgument(
        "scenario has no `audit` directive; the service needs one to know "
        "which property to enforce");
  }
  const epi::AuditReport& last = scenario.reports.back();

  std::unique_ptr<epi::service::AuditService> service;
  if (const epi::Status s = epi::service::AuditService::try_create(
          scenario.universe, scenario.final_state, last.audit_query, last.prior,
          options.service, &service);
      !s.ok()) {
    return s;
  }

  epi::net::EventLoop::Options loop_options;
  loop_options.idle_timeout = std::chrono::milliseconds(options.idle_timeout_ms);
  std::unique_ptr<epi::net::ServiceServer> server;
  if (const epi::Status s = epi::net::ServiceServer::try_create(
          service.get(), loop_options, &server);
      !s.ok()) {
    return s;
  }

  for (const std::string& spec : options.listen_specs) {
    epi::net::Address addr;
    if (epi::Status s = epi::net::parse_address(spec, &addr); !s.ok()) return s;
    if (epi::Status s = server->add_listener(&addr); !s.ok()) return s;
    // The resolved form: a tcp:HOST:0 listener prints its real port.
    std::printf("audit_server: listening on %s\n", addr.to_string().c_str());
  }
  std::printf("audit_server: enforcing \"%s\" under %s prior\n",
              last.audit_query.c_str(), epi::to_string(last.prior).c_str());
  std::fflush(stdout);

  // Signal pump: a self-rescheduling 200 ms timer turns the async-signal
  // flags into loop-thread actions (epoll_wait wakes on EINTR because the
  // handlers install without SA_RESTART).
  auto pump = std::make_shared<std::function<void()>>();
  epi::net::ServiceServer* server_ptr = server.get();
  epi::service::AuditService* service_ptr = service.get();
  *pump = [server_ptr, service_ptr, pump] {
    if (g_dump_metrics) {
      g_dump_metrics = 0;
      std::fprintf(
          stderr, "%s",
          epi::obs::metrics_to_text(service_ptr->metrics_snapshot()).c_str());
    }
    if (g_stop) server_ptr->begin_shutdown();
    if (server_ptr->draining()) return;  // the loop is on its way out
    server_ptr->loop().post_at(
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200),
        *pump);
  };
  server->loop().post_at(std::chrono::steady_clock::now(), *pump);

  const epi::Status status = server->run();
  service->shutdown();
  std::fprintf(stderr, "audit_server: drained and stopped\n%s",
               epi::obs::metrics_to_text(service->metrics_snapshot()).c_str());
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  if (const epi::Status s = parse_args(argc, argv, &options); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.to_string().c_str(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  std::signal(SIGPIPE, SIG_IGN);  // belt; every net/ send is MSG_NOSIGNAL
  struct sigaction sa{};
  sa.sa_handler = handle_stop;  // no SA_RESTART: epoll_wait must see EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = handle_usr1;
  sigaction(SIGUSR1, &sa, nullptr);

  epi::Status status = epi::Status::Ok();
  try {
    status = run(options);
  } catch (const std::exception& e) {
    status = epi::Status::Internal(e.what());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  return 0;
}
