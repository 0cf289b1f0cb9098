// ShardRouter: the front process of a horizontally sharded deployment.
// Clients speak the ordinary JSON-lines protocol to the router; the router
// consistent-hashes each session key (the `user`) onto one of N worker
// processes (each an audit_server) and relays verbatim, so verdicts are the
// workers' bytes, not a re-serialization.
//
// Invariants that keep sharded verdicts byte-identical to one offline
// `Auditor::audit` of the same per-user log:
//
//  * Session affinity — all of a user's disclosures go to one worker, in
//    arrival order, so that worker's Session holds exactly the user's
//    accumulated knowledge (B1 ∩ ... ∩ Bk). Responses are matched to
//    requests per-upstream FIFO, which is sound because ServiceServer
//    responds in request order on each connection.
//  * Replay-based rebalance — when ownership moves (worker added, drained
//    out, or died), the router holds the user's live traffic, sends the new
//    owner `reset_session` + every logged (query, answer) disclosure in
//    replayed-log mode, one frame in flight at a time (the worker's bounded
//    queue counts a session's waiting audits, so a long log sent at once
//    would overflow it), and only then releases held traffic. Composition
//    (Section 3.3: cumulative knowledge is the intersection of disclosed
//    sets) makes the replayed session's state — and every subsequent
//    verdict — identical to an unbroken one.
//  * Rebalance waits for in-flight — a user's move starts only after their
//    un-acked forwards drain (acked disclosures enter the log; a move in
//    between would replay a log missing them). A *dead* worker's un-acked
//    forwards are instead re-queued, in order, ahead of held traffic: its
//    absorbed-but-unacked state died with it, and the fresh owner decides
//    them against the replayed prefix, exactly as offline would.
//
// Worker health: a periodic `hello` ping per upstream; a worker that misses
// `health_max_missed` consecutive ping windows — or whose connection drops —
// is declared dead, removed from the ring, and its sessions rebalance.
//
// Admin (over the same protocol, from any client connection):
//   {"op": "add_worker",    "addr": "tcp:HOST:PORT|unix:PATH"}
//   {"op": "remove_worker", "addr": "..."}   — graceful drain-out
//
// `metrics` and `hello` are forwarded to the first live worker (ring
// order); `shutdown` shuts the workers down too, then drains and stops.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/event_loop.h"
#include "service/protocol.h"

namespace epi {
namespace net {

struct RouterOptions {
  EventLoop::Options loop;
  /// Virtual nodes per worker on the hash ring: more vnodes → smoother key
  /// spread and smaller rebalance slices, at O(vnodes·workers) ring size.
  unsigned vnodes = 64;
  /// Ping cadence; zero disables active health checks (connection drops
  /// still detect death).
  std::chrono::milliseconds health_interval{1000};
  /// Consecutive unanswered ping windows before a worker is declared dead.
  unsigned health_max_missed = 3;
};

class ShardRouter : public EventLoop::Handler {
 public:
  static Status try_create(RouterOptions options,
                           std::unique_ptr<ShardRouter>* out);

  /// Client-facing listener (unix:/tcp:, repeatable).
  Status add_listener(Address* addr);

  /// Dials a worker and adds it to the ring, rebalancing affected sessions.
  /// Call before run() for the initial set; at runtime arrives as the
  /// add_worker op.
  Status add_worker(const Address& addr);

  /// Serves until a shutdown drains; returns the loop's verdict.
  Status run();

  /// Loop-thread only (post() from elsewhere): shut workers down, drain,
  /// stop. Idempotent.
  void begin_shutdown();

  EventLoop& loop() { return *loop_; }
  std::size_t worker_count() const { return upstreams_.size(); }

 private:
  /// One expected response in an upstream's FIFO.
  struct Forward {
    enum class Kind {
      kAudit,        ///< client audit — relay, log on ack
      kReset,        ///< client reset_session — relay, clear log on ack
      kPassthrough,  ///< client hello/metrics — relay
      kPing,         ///< router health probe — swallow
      kReplay,       ///< router rebalance frame — swallow, count down
      kShutdown,     ///< router-sent shutdown — swallow
    };
    Kind kind = Kind::kPing;
    EventLoop::ConnId client = 0;
    std::string user;
    service::WireRequest request;  ///< re-dispatch payload (kAudit/kReset)
  };

  struct Upstream {
    Address addr;
    std::string key;  ///< addr.to_string(): ring + admin identity
    EventLoop::ConnId conn = 0;
    std::deque<Forward> fifo;
    unsigned missed_pings = 0;
    bool in_ring = true;  ///< false while draining out (remove_worker)
  };

  /// A client job held while its session is mid-rebalance.
  struct HeldJob {
    EventLoop::ConnId client = 0;
    service::WireRequest request;
  };

  /// One acked successful disclosure in a session's replay script. The
  /// replayed-log frame (reset-free audit with the recorded answer) is
  /// serialized exactly once, at ack time: a membership change used to
  /// rebuild and re-serialize every logged query per rebalance, so a hot
  /// ring paid O(log length) serializations per move — now replay is a
  /// verbatim byte send per entry.
  struct LogEntry {
    std::string query;
    bool answer = false;
    std::string replay_frame;  ///< serialize_request of the replay WireRequest
  };

  /// Everything the router knows about one user's session.
  struct SessionState {
    std::string owner;  ///< upstream key; empty = unassigned
    /// Acked successful disclosures, in order: the replay script.
    std::vector<LogEntry> log;
    std::size_t in_flight = 0;  ///< un-acked client jobs at `owner`
    bool replaying = false;
    std::size_t replay_outstanding = 0;
    bool rebalance_pending = false;  ///< waiting for in_flight to drain
    std::deque<HeldJob> held;
  };

  explicit ShardRouter(RouterOptions options) : options_(options) {}

  // EventLoop::Handler
  void on_line(EventLoop::ConnId conn, std::string line) override;
  void on_open(EventLoop::ConnId conn) override;
  void on_close(EventLoop::ConnId conn, const Status& why) override;

  void handle_client_line(EventLoop::ConnId conn, const std::string& line);
  void handle_upstream_line(Upstream& upstream, const std::string& line);

  /// Routes an audit / reset_session: hold if the session is moving,
  /// otherwise forward to the ring owner.
  void route_job(EventLoop::ConnId client, service::WireRequest request);
  void forward_job(EventLoop::ConnId client, SessionState& state,
                   service::WireRequest request);
  void send_error(EventLoop::ConnId client, std::uint64_t id, const Status& s);

  /// Rebuilds the ring points from the in-ring upstreams.
  void rebuild_ring();
  /// Ring lookup; empty string when the ring is empty.
  std::string ring_owner(const std::string& user) const;
  /// First in-ring worker in ring order (hello/metrics passthrough).
  Upstream* first_worker();
  Upstream* upstream_by_key(const std::string& key);

  /// Re-examines every session after membership changed.
  void rebalance_all();
  /// Moves `user` to `new_owner`: reset + replayed log, traffic held.
  void start_replay(const std::string& user, SessionState& state,
                    const std::string& new_owner);
  /// Sends the owner the next replay frame after one was answered.
  void continue_replay(const std::string& user, SessionState& state);
  void finish_replay(const std::string& user, SessionState& state);
  /// Declares `key` dead: re-queues its un-acked client jobs in order,
  /// fails passthroughs, drops it, rebalances.
  void worker_died(const std::string& key);

  void schedule_health_check();
  void maybe_finish_drain();

  RouterOptions options_;
  std::unique_ptr<EventLoop> loop_;

  /// key → upstream. Stable addresses: handlers hold Upstream& across sends.
  std::unordered_map<std::string, std::unique_ptr<Upstream>> upstreams_;
  std::unordered_map<EventLoop::ConnId, Upstream*> upstream_by_conn_;
  /// hash point → worker key, sorted (std::map) for the successor lookup.
  std::map<std::uint64_t, std::string> ring_;

  std::unordered_set<EventLoop::ConnId> clients_;
  std::unordered_map<std::string, SessionState> sessions_;

  bool adopting_upstream_ = false;  ///< on_open disambiguation during adopt
  bool draining_ = false;
  bool health_timer_armed_ = false;
};

}  // namespace net
}  // namespace epi
