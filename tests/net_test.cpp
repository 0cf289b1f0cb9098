// Tests for the epoll serving tier (src/net/): line reassembly when a peer
// delivers one byte per read, write backpressure against a peer whose
// receive buffer is full, the write-buffer cap, idle sweeps, and the
// ServiceServer ordering invariants — per-connection responses in request
// order, per-user disclosure sequences with nothing lost, duplicated or
// reordered — under the same pathological delivery.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "net/service_server.h"
#include "service/audit_service.h"
#include "service/protocol.h"
#include "util/status.h"
#include "worlds/world_set.h"

namespace epi {
namespace net {
namespace {

// --- harness ---------------------------------------------------------------

/// Runs an EventLoop on a background thread; the test thread talks to it
/// through the peer ends of socketpairs and through post().
class LoopRunner {
 public:
  LoopRunner(EventLoop::Handler* handler, EventLoop::Options options) {
    const Status s = EventLoop::try_create(handler, options, &loop_);
    EXPECT_TRUE(s.ok()) << s.to_string();
  }

  ~LoopRunner() { stop(); }

  /// Creates a socketpair, adopts one end into the loop (before the loop
  /// thread starts, or via post() after), and returns the test-side fd.
  int adopt_peer(EventLoop::ConnId* conn) {
    int fds[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    if (!running_) {
      EXPECT_TRUE(loop_->adopt(fds[0], conn).ok());
    } else {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      loop_->post([&] {
        EXPECT_TRUE(loop_->adopt(fds[0], conn).ok());
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
    }
    return fds[1];
  }

  void start() {
    running_ = true;
    thread_ = std::thread([this] {
      const Status s = loop_->run();
      EXPECT_TRUE(s.ok()) << s.to_string();
    });
  }

  void stop() {
    if (running_) {
      loop_->stop();
      thread_.join();
      running_ = false;
    }
  }

  EventLoop& loop() { return *loop_; }

 private:
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
  bool running_ = false;
};

/// Replies "ack:<line>" to every line; records closes.
class EchoHandler : public EventLoop::Handler {
 public:
  explicit EchoHandler(std::size_t ack_repeat = 1) : ack_repeat_(ack_repeat) {}

  void on_line(EventLoop::ConnId conn, std::string line) override {
    for (std::size_t i = 0; i < ack_repeat_; ++i) {
      loop->send_line(conn, "ack:" + line);
    }
  }

  void on_close(EventLoop::ConnId conn, const Status& why) override {
    std::lock_guard<std::mutex> lock(mu);
    closes.emplace_back(conn, why);
    closed.notify_all();
  }

  Status wait_for_close(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    if (!closed.wait_for(lock, timeout, [&] { return !closes.empty(); })) {
      return Status::DeadlineExceeded("no close observed");
    }
    return closes.front().second;
  }

  EventLoop* loop = nullptr;
  std::mutex mu;
  std::condition_variable closed;
  std::vector<std::pair<EventLoop::ConnId, Status>> closes;

 private:
  std::size_t ack_repeat_;
};

/// Blocking-reads lines from the test-side fd until `n` arrive.
std::vector<std::string> read_lines(int fd, std::size_t n) {
  std::vector<std::string> lines;
  service::LineFramer framer;
  char chunk[4096];
  std::string line;
  while (lines.size() < n) {
    while (framer.next(&line)) {
      lines.push_back(line);
      if (lines.size() == n) return lines;
    }
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) break;
    EXPECT_TRUE(framer.feed(std::string_view(chunk, got)).ok());
    while (lines.size() < n && framer.next(&line)) lines.push_back(line);
  }
  return lines;
}

// --- EventLoop -------------------------------------------------------------

// A peer that dribbles one byte per send still yields every line exactly
// once, in order: the per-connection LineFramer reassembles across an
// arbitrary number of partial reads.
TEST(EventLoopTest, ReassemblesLinesFromSingleByteReads) {
  EchoHandler handler;
  LoopRunner runner(&handler, EventLoop::Options{});
  handler.loop = &runner.loop();
  EventLoop::ConnId conn = 0;
  const int peer = runner.adopt_peer(&conn);
  runner.start();

  std::vector<std::string> sent;
  std::string wire;
  for (int i = 0; i < 40; ++i) {
    sent.push_back("{\"op\":\"probe\",\"id\":" + std::to_string(i) + "}");
    wire += sent.back() + "\n";
  }
  for (char byte : wire) {
    ASSERT_EQ(1, ::send(peer, &byte, 1, MSG_NOSIGNAL));
  }

  const std::vector<std::string> acks = read_lines(peer, sent.size());
  ASSERT_EQ(sent.size(), acks.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ("ack:" + sent[i], acks[i]) << "line " << i;
  }
  ::close(peer);
}

// A peer that stops reading fills its receive buffer and the loop's send()
// starts short-writing; everything spills into the per-connection write
// buffer and drains — complete and in order — once the peer reads again.
TEST(EventLoopTest, BuffersWritesAgainstFullSendBuffer) {
  // Each request fans out 64 acks, so the responses (~64 * 200 * ~120 B)
  // comfortably exceed the socketpair's buffers while the peer is asleep.
  EchoHandler handler(/*ack_repeat=*/64);
  LoopRunner runner(&handler, EventLoop::Options{});
  handler.loop = &runner.loop();
  EventLoop::ConnId conn = 0;
  const int peer = runner.adopt_peer(&conn);
  runner.start();

  const std::string payload(100, 'x');
  constexpr int kRequests = 200;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    wire += "req" + std::to_string(i) + ":" + payload + "\n";
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(peer, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  // Only now start reading: the loop has been eating EAGAIN the whole time.
  const std::vector<std::string> acks = read_lines(peer, kRequests * 64u);
  ASSERT_EQ(kRequests * 64u, acks.size());
  std::size_t at = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string want =
        "ack:req" + std::to_string(i) + ":" + payload;
    for (int j = 0; j < 64; ++j, ++at) {
      ASSERT_EQ(want, acks[at]) << "request " << i << " ack " << j;
    }
  }
  ::close(peer);
}

// A peer that never reads cannot grow the write buffer without bound: once
// max_write_buffer_bytes is exceeded the connection is destroyed with
// ResourceExhausted.
TEST(EventLoopTest, CapsWriteBufferAgainstStuckPeer) {
  EchoHandler handler(/*ack_repeat=*/256);
  EventLoop::Options options;
  options.max_write_buffer_bytes = 64u << 10;
  LoopRunner runner(&handler, options);
  handler.loop = &runner.loop();
  EventLoop::ConnId conn = 0;
  const int peer = runner.adopt_peer(&conn);
  runner.start();

  // 256 acks x ~1 KiB per request; a few requests overwhelm the cap while
  // the test never reads.
  const std::string request(1000, 'y');
  for (int i = 0; i < 64; ++i) {
    const std::string line = request + "\n";
    if (::send(peer, line.data(), line.size(), MSG_NOSIGNAL) < 0) break;
  }
  const Status why = handler.wait_for_close(std::chrono::seconds(10));
  EXPECT_EQ(why.code(), Status::Code::kResourceExhausted) << why.to_string();
  ::close(peer);
}

// Connections with no traffic either way are swept after idle_timeout.
TEST(EventLoopTest, SweepsIdleConnections) {
  EchoHandler handler;
  EventLoop::Options options;
  options.idle_timeout = std::chrono::milliseconds(100);
  LoopRunner runner(&handler, options);
  handler.loop = &runner.loop();
  EventLoop::ConnId conn = 0;
  const int peer = runner.adopt_peer(&conn);
  runner.start();

  const Status why = handler.wait_for_close(std::chrono::seconds(10));
  EXPECT_EQ(why.code(), Status::Code::kDeadlineExceeded) << why.to_string();
  char byte;
  EXPECT_EQ(0, ::read(peer, &byte, 1));  // loop closed its end
  ::close(peer);
}

// --- ServiceServer ---------------------------------------------------------

RecordUniverse hospital_universe() {
  RecordUniverse u;
  u.add("bob_hiv");
  u.add("bob_transfusion");
  u.add("bob_hepatitis");
  return u;
}

std::unique_ptr<service::AuditService> make_service() {
  service::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.cache_capacity = 64;
  std::unique_ptr<service::AuditService> service;
  const Status s = service::AuditService::try_create(
      hospital_universe(), /*initial_state=*/0b011, "bob_hiv",
      PriorAssumption::kProduct, std::move(options), &service);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return service;
}

// Pipelines interleaved audits for several users over one connection,
// delivered one byte at a time, and checks the server's two ordering
// invariants: responses come back in request order (ids 1..n), and each
// user's disclosure sequence is 1..k with no gap, duplicate or reorder,
// restarting at 1 after a reset_session pipelined among the audits.
TEST(ServiceServerTest, PipelinedAuditsKeepPerUserSequences) {
  std::unique_ptr<service::AuditService> service = make_service();
  std::unique_ptr<ServiceServer> server;
  ASSERT_TRUE(
      ServiceServer::try_create(service.get(), EventLoop::Options{}, &server)
          .ok());

  EventLoop::ConnId conn = 0;
  int peer = -1;
  {
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    ASSERT_TRUE(server->loop().adopt(fds[0], &conn).ok());
    peer = fds[1];
  }
  std::thread loop_thread([&] { EXPECT_TRUE(server->run().ok()); });

  const std::vector<std::string> users = {"alice", "bob", "cindy"};
  const std::vector<std::string> queries = {
      "bob_hiv", "bob_hiv -> bob_transfusion", "bob_transfusion",
      "atmost(0, bob_hepatitis)"};
  // bob's session is reset mid-stream, pipelined behind his earlier audits.
  constexpr int kRounds = 8;
  constexpr int kResetRound = 5;
  std::string wire;
  std::vector<service::WireRequest> sent;  // sent[id - 1]
  auto send = [&](service::Op op, const std::string& user,
                  const std::string& query) {
    service::WireRequest request;
    request.op = op;
    request.id = sent.size() + 1;
    request.user = user;
    request.query = query;
    wire += serialize_request(request) + "\n";
    sent.push_back(request);
  };
  for (int round = 0; round < kRounds; ++round) {
    if (round == kResetRound) send(service::Op::kResetSession, "bob", "");
    for (const std::string& user : users) {
      send(service::Op::kAudit, user, queries[round % queries.size()]);
    }
  }
  for (char byte : wire) {
    ASSERT_EQ(1, ::send(peer, &byte, 1, MSG_NOSIGNAL));
  }

  const std::vector<std::string> lines = read_lines(peer, sent.size());
  ASSERT_EQ(sent.size(), lines.size());
  std::map<std::string, std::uint64_t> next_sequence;
  std::uint64_t expected_id = 0;
  for (const std::string& line : lines) {
    service::WireResponse response;
    ASSERT_TRUE(parse_response(line, &response).ok()) << line;
    ASSERT_TRUE(response.ok) << line;
    // Per-connection order: ids echo back exactly as sent.
    EXPECT_EQ(++expected_id, response.id);
    const service::WireRequest& request = sent[response.id - 1];
    if (request.op == service::Op::kResetSession) {
      next_sequence[request.user] = 0;
      continue;
    }
    // Per-user order: the service's own sequence counter must tick 1..k,
    // restarting at 1 after the user's reset.
    EXPECT_EQ(++next_sequence[request.user], response.sequence)
        << request.user << " at id " << response.id;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(kRounds), next_sequence["alice"]);
  EXPECT_EQ(static_cast<std::uint64_t>(kRounds - kResetRound),
            next_sequence["bob"]);
  EXPECT_EQ(static_cast<std::uint64_t>(kRounds), next_sequence["cindy"]);

  // Wire shutdown: ok response, then the server drains and run() returns.
  service::WireRequest bye;
  bye.op = service::Op::kShutdown;
  bye.id = sent.size() + 1;
  const std::string bye_wire = serialize_request(bye) + "\n";
  ASSERT_EQ(static_cast<ssize_t>(bye_wire.size()),
            ::send(peer, bye_wire.data(), bye_wire.size(), MSG_NOSIGNAL));
  const std::vector<std::string> tail = read_lines(peer, 1);
  ASSERT_EQ(1u, tail.size());
  service::WireResponse response;
  ASSERT_TRUE(parse_response(tail[0], &response).ok());
  EXPECT_TRUE(response.ok);
  loop_thread.join();
  ::close(peer);
  service->shutdown();
}

}  // namespace
}  // namespace net
}  // namespace epi
