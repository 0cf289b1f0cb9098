// Command-line client for audit_server / shard_router: connects over a Unix
// or TCP socket, speaks the JSON-lines wire protocol (src/service/
// protocol.h) and prints one tab-separated line per verdict — stable output
// made for diffing, which is exactly what tests/service_smoke.sh and
// tests/shard_smoke.sh do against the offline auditor.
//
// Usage: audit_client --connect unix:PATH|tcp:HOST:PORT [--user NAME]
//                     [--query TEXT]... [--query-file FILE] [--repeat N]
//                     [--deadline-ms N] [--addr WORKER]
//                     [--op hello|metrics|reset_session|shutdown
//                         |add_worker|remove_worker]
//
// The add_worker / remove_worker ops are shard_router admin (--addr names
// the worker's listen address); a plain audit_server rejects them.
//
// --query-file lines are `user<TAB>query[<TAB>true|false]`; the optional
// third field replays a logged answer instead of letting the server evaluate
// the query (a line without tabs is a query for --user). Audit output
// columns:
//
//   user  query  answer  verdict  method  cached  cum_verdict  cum_method  seq
//
// Exit 0 when every response was ok, 1 on any error response or transport
// failure, 2 on bad flags.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "net/address.h"
#include "service/protocol.h"
#include "util/status.h"

namespace {

constexpr char kUsage[] =
    "usage: audit_client --connect unix:PATH|tcp:HOST:PORT [--user NAME]\n"
    "                    [--query TEXT]... [--query-file FILE] [--repeat N]\n"
    "                    [--deadline-ms N] [--addr WORKER]\n"
    "                    [--op hello|metrics|reset_session|shutdown\n"
    "                        |add_worker|remove_worker]\n"
    "  --connect ADDR      server address (unix:PATH or tcp:HOST:PORT)\n"
    "  --user NAME         user for --query queries and reset_session\n"
    "                      (default 'client')\n"
    "  --query TEXT        audit one query (repeatable, sent in order)\n"
    "  --query-file FILE   audit queries from FILE, one per line:\n"
    "                      user<TAB>query[<TAB>true|false]\n"
    "  --repeat N          send the whole query list N times (default 1)\n"
    "  --deadline-ms N     per-request deadline, relative\n"
    "  --op OP             send a control request instead of audits\n"
    "  --addr WORKER       worker address for add_worker / remove_worker\n";

struct QueryItem {
  std::string user;
  std::string query;
  std::optional<bool> answer;
};

struct ClientOptions {
  std::string connect_spec;
  std::string user = "client";
  std::string worker_addr;
  std::vector<QueryItem> queries;         ///< --query items (user filled later)
  const char* query_file = nullptr;
  long repeat = 1;
  long deadline_ms = 0;
  const char* op = nullptr;
  bool help = false;
};

epi::Status parse_args(int argc, char** argv, ClientOptions* out) {
  auto next_value = [&](int& i, const char* flag, const char** value) {
    if (i + 1 >= argc) {
      return epi::Status::InvalidArgument(std::string(flag) + " needs a value");
    }
    *value = argv[++i];
    return epi::Status::Ok();
  };
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      out->help = true;
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      if (const epi::Status s = next_value(i, "--connect", &value); !s.ok()) return s;
      out->connect_spec = value;
    } else if (std::strcmp(argv[i], "--addr") == 0) {
      if (const epi::Status s = next_value(i, "--addr", &value); !s.ok()) return s;
      out->worker_addr = value;
    } else if (std::strcmp(argv[i], "--user") == 0) {
      if (const epi::Status s = next_value(i, "--user", &value); !s.ok()) return s;
      out->user = value;
    } else if (std::strcmp(argv[i], "--query") == 0) {
      if (const epi::Status s = next_value(i, "--query", &value); !s.ok()) return s;
      out->queries.push_back({"", value, std::nullopt});
    } else if (std::strcmp(argv[i], "--query-file") == 0) {
      if (const epi::Status s = next_value(i, "--query-file", &value); !s.ok())
        return s;
      out->query_file = value;
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      if (const epi::Status s = next_value(i, "--repeat", &value); !s.ok()) return s;
      out->repeat = std::strtol(value, nullptr, 10);
      if (out->repeat < 1) {
        return epi::Status::InvalidArgument("--repeat must be >= 1");
      }
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (const epi::Status s = next_value(i, "--deadline-ms", &value); !s.ok())
        return s;
      out->deadline_ms = std::strtol(value, nullptr, 10);
      if (out->deadline_ms < 0) {
        return epi::Status::InvalidArgument("--deadline-ms must be >= 0");
      }
    } else if (std::strcmp(argv[i], "--op") == 0) {
      if (const epi::Status s = next_value(i, "--op", &value); !s.ok()) return s;
      out->op = value;
    } else {
      return epi::Status::InvalidArgument(std::string("unknown flag '") +
                                          argv[i] + "'");
    }
  }
  if (!out->help && out->connect_spec.empty()) {
    return epi::Status::InvalidArgument("--connect is required");
  }
  return epi::Status::Ok();
}

epi::Status load_query_file(const char* path, const std::string& default_user,
                            std::vector<QueryItem>* out) {
  std::ifstream file(path);
  if (!file) {
    return epi::Status::InvalidArgument(std::string("cannot open query file '") +
                                        path + "'");
  }
  std::string line;
  int line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    QueryItem item;
    const std::size_t tab1 = line.find('\t');
    if (tab1 == std::string::npos) {
      item.user = default_user;
      item.query = line;
    } else {
      item.user = line.substr(0, tab1);
      const std::size_t tab2 = line.find('\t', tab1 + 1);
      item.query = line.substr(tab1 + 1, tab2 == std::string::npos
                                             ? std::string::npos
                                             : tab2 - tab1 - 1);
      if (tab2 != std::string::npos) {
        const std::string answer = line.substr(tab2 + 1);
        if (answer == "true") {
          item.answer = true;
        } else if (answer == "false") {
          item.answer = false;
        } else {
          return epi::Status::InvalidArgument(
              std::string(path) + " line " + std::to_string(line_number) +
              ": answer must be 'true' or 'false', got '" + answer + "'");
        }
      }
    }
    if (item.user.empty() || item.query.empty()) {
      return epi::Status::InvalidArgument(std::string(path) + " line " +
                                          std::to_string(line_number) +
                                          ": empty user or query");
    }
    out->push_back(std::move(item));
  }
  return epi::Status::Ok();
}

/// Connection with one-line-at-a-time request/response exchange, framed by
/// the same service::LineFramer the server side uses.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  epi::Status open(const std::string& spec) {
    epi::net::Address addr;
    if (const epi::Status s = epi::net::parse_address(spec, &addr); !s.ok()) {
      return s;
    }
    return epi::net::connect_to(addr, &fd_);
  }

  epi::Status roundtrip(const epi::service::WireRequest& request,
                        epi::service::WireResponse* response) {
    const std::string frame = serialize_request(request) + "\n";
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return epi::Status::Unavailable(std::string("send: ") +
                                        std::strerror(errno));
      }
      sent += static_cast<std::size_t>(n);
    }
    std::string line;
    while (!framer_.next(&line)) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        return epi::Status::Unavailable(std::string("read: ") +
                                        std::strerror(errno));
      }
      if (n == 0) {
        return epi::Status::Unavailable("server closed the connection");
      }
      if (const epi::Status s =
              framer_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
          !s.ok()) {
        return s;
      }
    }
    return parse_response(line, response);
  }

 private:
  int fd_ = -1;
  epi::service::LineFramer framer_;
};

void print_audit_line(const QueryItem& item,
                      const epi::service::WireResponse& response) {
  if (!response.ok) {
    std::printf("%s\t%s\tERROR\t%s\t%s\n", item.user.c_str(), item.query.c_str(),
                response.code.c_str(), response.error.c_str());
    return;
  }
  if (response.denied) {
    std::printf("%s\t%s\tDENIED\n", item.user.c_str(), item.query.c_str());
    return;
  }
  std::printf("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%llu\n", item.user.c_str(),
              item.query.c_str(), response.answer ? "true" : "false",
              response.verdict.c_str(), response.method.c_str(),
              response.cached ? "cached" : "engine",
              response.cumulative_verdict.c_str(),
              response.cumulative_method.c_str(),
              static_cast<unsigned long long>(response.sequence));
}

epi::Status run(const ClientOptions& options, bool* any_failed) {
  Connection connection;
  if (const epi::Status s = connection.open(options.connect_spec); !s.ok()) return s;

  std::uint64_t next_id = 1;
  if (options.op != nullptr) {
    epi::service::WireRequest request;
    request.id = next_id++;
    request.user = options.user;
    if (std::strcmp(options.op, "hello") == 0) {
      request.op = epi::service::Op::kHello;
    } else if (std::strcmp(options.op, "metrics") == 0) {
      request.op = epi::service::Op::kMetrics;
    } else if (std::strcmp(options.op, "reset_session") == 0) {
      request.op = epi::service::Op::kResetSession;
    } else if (std::strcmp(options.op, "shutdown") == 0) {
      request.op = epi::service::Op::kShutdown;
    } else if (std::strcmp(options.op, "add_worker") == 0) {
      request.op = epi::service::Op::kAddWorker;
      request.addr = options.worker_addr;
    } else if (std::strcmp(options.op, "remove_worker") == 0) {
      request.op = epi::service::Op::kRemoveWorker;
      request.addr = options.worker_addr;
    } else {
      return epi::Status::InvalidArgument(std::string("unknown --op '") +
                                          options.op + "'");
    }
    epi::service::WireResponse response;
    if (const epi::Status s = connection.roundtrip(request, &response); !s.ok()) {
      return s;
    }
    if (!response.ok) {
      *any_failed = true;
      std::fprintf(stderr, "%s\n", response.error.c_str());
      return epi::Status::Ok();
    }
    switch (request.op) {
      case epi::service::Op::kHello:
        std::printf("audit_query\t%s\nprior\t%s\n", response.audit_query.c_str(),
                    response.prior.c_str());
        break;
      case epi::service::Op::kMetrics:
        std::printf("%s\n", response.metrics_json.c_str());
        break;
      default:
        std::printf("ok\n");
        break;
    }
    return epi::Status::Ok();
  }

  std::vector<QueryItem> queries;
  for (QueryItem item : options.queries) {
    item.user = options.user;
    queries.push_back(std::move(item));
  }
  if (options.query_file != nullptr) {
    if (const epi::Status s =
            load_query_file(options.query_file, options.user, &queries);
        !s.ok()) {
      return s;
    }
  }
  if (queries.empty()) {
    return epi::Status::InvalidArgument(
        "nothing to send: give --query, --query-file or --op");
  }

  for (long round = 0; round < options.repeat; ++round) {
    for (const QueryItem& item : queries) {
      epi::service::WireRequest request;
      request.op = epi::service::Op::kAudit;
      request.id = next_id++;
      request.user = item.user;
      request.query = item.query;
      request.answer = item.answer;
      request.deadline_ms = options.deadline_ms;
      epi::service::WireResponse response;
      if (const epi::Status s = connection.roundtrip(request, &response); !s.ok()) {
        return s;
      }
      if (!response.ok) *any_failed = true;
      print_audit_line(item, response);
    }
  }
  return epi::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  ClientOptions options;
  if (const epi::Status s = parse_args(argc, argv, &options); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.to_string().c_str(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  bool any_failed = false;
  epi::Status status = epi::Status::Ok();
  try {
    status = run(options, &any_failed);
  } catch (const std::exception& e) {
    status = epi::Status::Internal(e.what());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  return any_failed ? 1 : 0;
}
