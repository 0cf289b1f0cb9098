// The shard router daemon: the front process of a horizontally sharded
// audit deployment (src/net/shard_router.h). Clients dial the router with
// the ordinary JSON-lines protocol; each session key (`user`) is
// consistent-hashed onto one audit_server worker, with replay-based
// rebalancing keeping verdicts byte-identical to an unsharded server across
// worker adds, drains and crashes.
//
//   $ audit_server --listen tcp:127.0.0.1:7101 --scenario h.scn &
//   $ audit_server --listen tcp:127.0.0.1:7102 --scenario h.scn &
//   $ shard_router --listen unix:/tmp/epi_router.sock --worker tcp:127.0.0.1:7101 --worker tcp:127.0.0.1:7102 &
//   $ audit_client --connect unix:/tmp/epi_router.sock --query bob_hiv
//
// Usage: shard_router [--listen unix:PATH|tcp:HOST:PORT]...
//                     [--worker ADDR]... [--vnodes N]
//                     [--health-interval-ms N] [--health-max-missed N]
//
// Workers can also be added/removed at runtime with the add_worker /
// remove_worker admin ops (audit_client --op add_worker --addr ...). Every
// worker must serve the same scenario; the router never looks inside a
// verdict, it only relays bytes.
//
// Signals: SIGINT / SIGTERM (or a wire `shutdown`) shut the workers down,
// drain and exit 0. Exit 2 for bad flags, 1 for runtime failures.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/shard_router.h"
#include "util/status.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

constexpr char kUsage[] =
    "usage: shard_router [--listen unix:PATH|tcp:HOST:PORT]...\n"
    "                    [--worker ADDR]... [--vnodes N]\n"
    "                    [--health-interval-ms N] [--health-max-missed N]\n"
    "  --listen ADDR            client-facing listen address (repeatable;\n"
    "                           default unix:/tmp/epi_router.sock)\n"
    "  --worker ADDR            audit_server worker to join the ring\n"
    "                           (repeatable; more can join at runtime via\n"
    "                           the add_worker op)\n"
    "  --vnodes N               virtual nodes per worker (default 64)\n"
    "  --health-interval-ms N   worker ping cadence (default 1000; 0 off)\n"
    "  --health-max-missed N    unanswered pings before a worker is\n"
    "                           declared dead (default 3)\n";

struct Options {
  std::vector<std::string> listen_specs;
  std::vector<std::string> worker_specs;
  epi::net::RouterOptions router;
  bool help = false;
};

epi::Status parse_args(int argc, char** argv, Options* out) {
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
    } else if (std::strcmp(argv[i], "--worker") == 0) {
      if (const epi::Status s = next_value(i, "--worker", &value); !s.ok()) return s;
      out->worker_specs.push_back(value);
    } else if (std::strcmp(argv[i], "--vnodes") == 0) {
      if (const epi::Status s = next_count(i, "--vnodes", &n); !s.ok()) return s;
      out->router.vnodes = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--health-interval-ms") == 0) {
      if (const epi::Status s = next_count(i, "--health-interval-ms", &n); !s.ok())
        return s;
      out->router.health_interval = std::chrono::milliseconds(n);
    } else if (std::strcmp(argv[i], "--health-max-missed") == 0) {
      if (const epi::Status s = next_count(i, "--health-max-missed", &n); !s.ok())
        return s;
      out->router.health_max_missed = static_cast<unsigned>(n);
    } else {
      return epi::Status::InvalidArgument(std::string("unknown flag '") +
                                          argv[i] + "'");
    }
  }
  if (out->listen_specs.empty()) {
    out->listen_specs.push_back("unix:/tmp/epi_router.sock");
  }
  return epi::Status::Ok();
}

epi::Status run(const Options& options) {
  std::unique_ptr<epi::net::ShardRouter> router;
  if (const epi::Status s =
          epi::net::ShardRouter::try_create(options.router, &router);
      !s.ok()) {
    return s;
  }

  for (const std::string& spec : options.worker_specs) {
    epi::net::Address addr;
    if (epi::Status s = epi::net::parse_address(spec, &addr); !s.ok()) return s;
    if (epi::Status s = router->add_worker(addr); !s.ok()) return s;
    std::printf("shard_router: worker %s joined\n", addr.to_string().c_str());
  }
  for (const std::string& spec : options.listen_specs) {
    epi::net::Address addr;
    if (epi::Status s = epi::net::parse_address(spec, &addr); !s.ok()) return s;
    if (epi::Status s = router->add_listener(&addr); !s.ok()) return s;
    std::printf("shard_router: listening on %s\n", addr.to_string().c_str());
  }
  std::printf("shard_router: routing across %zu workers\n",
              router->worker_count());
  std::fflush(stdout);

  // Signal pump, same shape as audit_server's: flags become loop actions.
  auto pump = std::make_shared<std::function<void()>>();
  epi::net::ShardRouter* router_ptr = router.get();
  *pump = [router_ptr, pump] {
    if (g_stop) {
      router_ptr->begin_shutdown();
      return;
    }
    router_ptr->loop().post_at(
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200),
        *pump);
  };
  router->loop().post_at(std::chrono::steady_clock::now(), *pump);

  const epi::Status status = router->run();
  std::fprintf(stderr, "shard_router: drained and stopped\n");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (const epi::Status s = parse_args(argc, argv, &options); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.to_string().c_str(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = handle_stop;  // no SA_RESTART: epoll_wait must see EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

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
