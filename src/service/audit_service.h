// The long-running concurrent audit service: the production front-end the
// ROADMAP's "heavy traffic" north star asks for, layered on the existing
// Auditor / DecisionEngine machinery so every verdict is byte-identical to
// an offline Auditor::audit of the same log.
//
// Shape:
//  * per-user Session objects track accumulated disclosures by intersection
//    (Section 3.3 composition) and optionally drive an OnlineAuditSession
//    allow/deny strategy;
//  * one bounded DisclosureMemo per scenario maps (query text, answer) to
//    its compiled disclosed set and that set's verdict, so a repeat needs
//    no parse, compile or engine decision;
//  * a bounded request queue with admission control: a full queue rejects
//    with Status::ResourceExhausted (backpressure), each request carries a
//    deadline and a cooperative cancellation flag, and shutdown() drains
//    every accepted request before the workers exit;
//  * the whole path is instrumented through the obs layer: a
//    `service.request` span per request (engine decide spans nest under it),
//    queue-depth / cache-hit counters and queue-wait / process-time
//    histograms in the service's own MetricsRegistry.
//
// Threading: every submit entry point is safe from any number of threads;
// `workers` service threads process requests. Admission keeps a FIFO per
// user: at most one request of a user runs at a time, a user's requests
// start in admission order, and reset_session() takes its place in that
// order. Distinct users proceed in parallel.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/auditor.h"
#include "core/online.h"
#include "service/disclosure_memo.h"
#include "service/session.h"
#include "util/status.h"

namespace epi {
namespace service {

/// Tuning knobs for the service. validate() gates construction.
struct ServiceOptions {
  /// Engine configuration (stage gating, SOS budget). `auditor.threads` is
  /// forced to 1: concurrency comes from the service workers, and
  /// single-pair decisions never fan out.
  AuditorOptions auditor;
  /// Request-processing threads (>= 1).
  unsigned workers = 2;
  /// Bounded queue: submissions beyond this many waiting requests are
  /// rejected with ResourceExhausted (>= 1). A request waiting behind a
  /// running request of the same user counts as waiting.
  std::size_t queue_capacity = 256;
  /// Distinct disclosed sets each scenario's DisclosureMemo keeps, with
  /// their verdicts; 0 keeps none.
  std::size_t cache_capacity = 4096;
  /// Applied to requests that carry no deadline of their own; zero means
  /// "no deadline".
  std::chrono::milliseconds default_deadline{0};
  /// When set, each session drives an OnlineAuditSession with this strategy
  /// and requests may be denied (AuditResponse::denied) before disclosing.
  std::optional<OnlineStrategy> online_strategy;
  /// Test-only: invoked by a worker thread right before it starts deciding a
  /// request (after the deadline check). Lets tests hold a worker to fill
  /// the queue deterministically. Never set in production code.
  std::function<void()> test_hook_pre_decide;
  /// Test-only: invoked after the per-disclosure verdict, while the worker
  /// holds the session, right before the absorb checkpoint. Lets tests race
  /// reset_session()/reload() against an in-flight request and exercise the
  /// deadline-after-decide path deterministically. Never set in production.
  std::function<void()> test_hook_pre_absorb;

  Status validate() const;
};

/// One streamed disclosure to audit.
struct AuditRequest {
  std::string user;
  std::string query_text;
  /// The answer the user saw (replayed-log mode). When absent the service
  /// evaluates the query against its own database state — and, in online
  /// mode, lets the strategy decide whether to answer at all.
  std::optional<bool> answer;
  /// Absolute per-request deadline; the default (epoch) means "use the
  /// service's default_deadline".
  std::chrono::steady_clock::time_point deadline{};
};

/// The verdict bundle for one request. `status` is Ok when the request was
/// decided (even if unsafe); queue rejection, deadline expiry, cancellation
/// and parse failures surface as non-Ok codes with empty findings.
struct AuditResponse {
  Status status = Status::Ok();
  bool answer = false;  ///< the Boolean answer recorded for the disclosure
  bool denied = false;  ///< online strategy refused to answer (no disclosure)
  /// Safe(A, B) for this disclosure alone — identical to the offline
  /// per-disclosure finding for the same (query, answer).
  AuditFinding disclosure;
  /// Safe(A, B1 ∩ ... ∩ Bk) for the user's accumulated knowledge after this
  /// disclosure — identical to the offline per-user cumulative finding.
  AuditFinding cumulative;
  bool disclosure_cached = false;  ///< served from the disclosure memo
  std::uint64_t sequence = 0;  ///< 1-based per-user disclosure number
};

/// Handle for a submitted request: the future plus cooperative cancellation.
class Ticket {
 public:
  std::future<AuditResponse> response;

  /// Requests cooperative cancellation: a worker that has not yet finished
  /// the request resolves it with Status::Cancelled at its next checkpoint.
  /// Safe to call at any time, including after completion.
  void cancel() {
    if (cancelled_) cancelled_->store(true, std::memory_order_relaxed);
  }

 private:
  friend class AuditService;
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

class AuditService {
 public:
  /// Validates options, the universe, the initial database state and the
  /// audit query (parse + compile) and spins up the workers. On failure
  /// `*out` is untouched and the Status names the problem.
  static Status try_create(RecordUniverse universe, World initial_state,
                           const std::string& audit_query_text,
                           PriorAssumption prior, ServiceOptions options,
                           std::unique_ptr<AuditService>* out);

  /// Drains and joins (shutdown()).
  ~AuditService();

  AuditService(const AuditService&) = delete;
  AuditService& operator=(const AuditService&) = delete;

  /// Enqueues a request. Admission control resolves the ticket immediately
  /// with ResourceExhausted when the queue is full and Unavailable after
  /// shutdown began; accepted requests always resolve eventually (graceful
  /// shutdown drains them).
  Ticket submit(AuditRequest request);

  /// Blocking convenience wrapper around submit().
  AuditResponse process(AuditRequest request);

  /// Callback-style submission for event-loop callers (src/net/): `done`
  /// runs exactly once with the response — on a service worker thread when
  /// the request was admitted, or inline on the submitting thread when
  /// admission rejects it (queue full / shutting down). The callback must
  /// not block; the net layer posts the response back onto its loop.
  void submit_async(AuditRequest request,
                    std::function<void(AuditResponse)> done);

  /// Batch admission: enqueues the whole batch atomically — either every
  /// request is accepted (one lock acquisition; a user's requests start in
  /// batch order, one at a time) or none is and every ticket resolves with
  /// the same ResourceExhausted / Unavailable status. All-or-nothing keeps
  /// batch semantics simple for callers sweeping a policy stream: no
  /// partially-admitted sweep to unpick. submit() and submit_async() are
  /// the one-request case of the same admission.
  std::vector<Ticket> submit_many(std::vector<AuditRequest> requests);

  /// Blocking convenience wrapper around submit_many(); responses[i]
  /// corresponds to requests[i].
  std::vector<AuditResponse> process_many(std::vector<AuditRequest> requests);

  /// Swaps the scenario under the service: new universe / state / audit
  /// query / prior. Sessions reset, and the new scenario starts with an
  /// empty disclosure memo (the old one's verdicts go with the old
  /// scenario). In-flight requests finish against the state they started
  /// with.
  Status reload(RecordUniverse universe, World initial_state,
                const std::string& audit_query_text, PriorAssumption prior);

  /// Forgets one user's accumulated knowledge. Never blocks: the reset
  /// takes effect after every request of that user admitted before it (at
  /// once when the user has nothing admitted or running), so the next
  /// request admitted after it starts a fresh session. Takes no queue slot.
  /// Ok even when the user has no session yet.
  Status reset_session(const std::string& user);

  /// Stops admission, drains every accepted request and joins the workers.
  /// Idempotent.
  void shutdown();

  /// False once shutdown began.
  bool accepting() const;

  /// Requests accepted but not yet started, including those waiting behind
  /// a running request of the same user.
  std::size_t queue_depth() const;

  /// The audited property / prior currently served.
  std::string audit_query() const;
  PriorAssumption prior() const;

  /// Point-in-time view of every service metric (queue, cache, requests).
  obs::MetricsSnapshot metrics_snapshot() const;

  /// The service's metrics registry (memo counters live here too).
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Everything the verdicts depend on; swapped wholesale by reload() so
  /// in-flight requests keep a coherent view via shared_ptr.
  struct Scenario {
    Scenario(RecordUniverse u, World state, std::string query_text,
             PriorAssumption p, const ServiceOptions& opts,
             obs::MetricsRegistry& metrics);

    /// The memo entry of (query text, answer): a key hit, else `parsed`
    /// compiled and interned.
    DisclosureMemo::EntryPtr disclosed(const std::string& query_text,
                                       bool answer, const Query& parsed);

    RecordUniverse universe;
    InMemoryDatabase db;
    std::string audit_query_text;
    PriorAssumption prior;
    Auditor auditor;
    WorldSet audit_set;  ///< the compiled sensitive property A
    std::uint64_t generation = 0;
    /// A and the prior are fixed here, so a verdict depends on the
    /// disclosed set alone.
    DisclosureMemo memo;
  };

  struct Pending {
    AuditRequest request;
    std::function<void(AuditResponse)> done;  ///< runs exactly once
    /// A ticketed submission's promise, fulfilled by its `done`; kept in the
    /// record so that callback needs no allocation of its own.
    std::optional<std::promise<AuditResponse>> promise;
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::chrono::steady_clock::time_point deadline{};  ///< epoch = none
    std::int64_t enqueue_ns = 0;
  };

  explicit AuditService(ServiceOptions options);

  /// Builds a scenario from the inputs and serves it under the next
  /// generation number (try_create and reload).
  Status install(RecordUniverse universe, World initial_state,
                 const std::string& audit_query_text, PriorAssumption prior);

  /// Builds the Pending record resolved by `done` (deadline defaulting,
  /// enqueue timestamp) without touching the queue.
  std::unique_ptr<Pending> make_pending(AuditRequest request,
                                        std::function<void(AuditResponse)> done);
  /// make_pending resolving a promise; the future and the cancellation flag
  /// go into `*ticket`.
  std::unique_ptr<Pending> make_ticketed(AuditRequest request, Ticket* ticket);
  /// The one admission routine: queues every request of `batch` behind its
  /// user's earlier work, or rejects them all and resolves them inline.
  void admit(std::span<std::unique_ptr<Pending>> batch);
  /// Ends `user`'s running request: applies the resets waiting behind it,
  /// then hands the user's next audit to the run queue or forgets the user.
  /// Called with queue_mutex_ held.
  void release_turn(const std::string& user);
  /// Pops the front of the run queue. Called with queue_mutex_ held.
  std::unique_ptr<Pending> take_ready();
  /// Erases `user`'s session (a reset_session() taking effect). Called with
  /// queue_mutex_ held: lock order is queue_mutex_, then sessions_mutex_.
  void drop_session(const std::string& user);

  void worker_loop();
  AuditResponse handle(Pending& pending, const std::shared_ptr<Scenario>& scenario,
                       AuditContext& ctx);
  /// The session serving `user` under `scenario`. Workers hold the returned
  /// shared_ptr for the whole request, so reload() erasing the map entry
  /// never destroys a session out from under a worker. A
  /// session whose generation predates the scenario is replaced; a worker
  /// finishing an in-flight request from before a reload gets a detached
  /// fresh session rather than trampling the newer one.
  std::shared_ptr<Session> session_for(const std::string& user,
                                       const Scenario& scenario);
  /// Builds a worker's AuditContext for `scenario` (stage slots, subcube
  /// oracle preparation).
  void configure_context(AuditContext& ctx, const Scenario& scenario) const;

  ServiceOptions options_;
  obs::MetricsRegistry metrics_;  ///< outlives every scenario's memo

  mutable std::shared_mutex scenario_mutex_;
  std::shared_ptr<Scenario> scenario_;
  std::uint64_t next_generation_ = 1;

  std::mutex sessions_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  /// Admitted audits free to start: no other request of their user is
  /// running or ahead of them here.
  std::deque<std::unique_ptr<Pending>> queue_;
  /// Per user with an audit in queue_ or running: what waits behind it, in
  /// admission order; a null entry is a reset_session(). A list, because an
  /// empty one allocates nothing and most users never have anything waiting.
  std::unordered_map<std::string, std::list<std::unique_ptr<Pending>>>
      waiting_;
  std::size_t depth_ = 0;  ///< admitted audits not yet started
  bool accepting_ = true;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  // Metric handles (resolved once; hot paths pay relaxed atomic adds).
  obs::Counter* accepted_;
  obs::Counter* rejected_;
  obs::Counter* completed_;
  obs::Counter* deadline_expired_;
  obs::Counter* cancelled_count_;
  obs::Counter* denied_;
  obs::Counter* parse_errors_;
  obs::Counter* queue_depth_;
  obs::Counter* sessions_created_;
  obs::Counter* reloads_;
  obs::Counter* incremental_pinned_;     ///< cumulative served from a pin
  obs::Counter* incremental_unchanged_;  ///< cumulative served, S unchanged
  obs::Counter* incremental_evaluated_;  ///< cumulative re-evaluated
  obs::Counter* parse_skips_;            ///< replays served parse-free
  obs::Histogram* queue_wait_ns_;
  obs::Histogram* process_ns_;
};

}  // namespace service
}  // namespace epi
