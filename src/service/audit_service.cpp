#include "service/audit_service.h"

#include <stdexcept>
#include <utility>

#include "db/parser.h"
#include "obs/trace.h"

namespace epi {
namespace service {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::chrono::steady_clock::time_point kNoDeadline{};

AuditFinding to_finding(const EngineDecision& d, std::string user,
                        std::string query_text, bool answer) {
  AuditFinding f;
  f.user = std::move(user);
  f.query_text = std::move(query_text);
  f.answer = answer;
  f.verdict = d.verdict;
  f.method = d.method;
  f.certified = d.certified;
  f.numeric_gap = d.numeric_gap;
  f.detail = d.detail;
  return f;
}

/// Shared by try_create and reload: the universe must be non-empty, the
/// initial state a member of {0,1}^n, and the audit query well-formed. The
/// membership test runs in 64 bits: RecordUniverse::add caps n at
/// kMaxSymbolicCoordinates = 32, where a 32-bit `World{1} << n` would
/// overflow (and wrongly reject every nonzero state at the ceiling).
Status validate_scenario_inputs(const RecordUniverse& universe,
                                World initial_state,
                                const std::string& audit_query_text) {
  if (universe.empty()) {
    return Status::InvalidArgument("AuditService: empty record universe");
  }
  if (std::uint64_t{initial_state} >= (std::uint64_t{1} << universe.size())) {
    return Status::InvalidArgument(
        "AuditService: initial state " + std::to_string(initial_state) +
        " outside {0,1}^" + std::to_string(universe.size()));
  }
  QueryPtr parsed;
  return try_parse_query(audit_query_text, &parsed);
}

}  // namespace

Status ServiceOptions::validate() const {
  if (workers == 0) {
    return Status::InvalidArgument("ServiceOptions: workers must be >= 1");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument(
        "ServiceOptions: queue_capacity must be >= 1");
  }
  if (default_deadline.count() < 0) {
    return Status::InvalidArgument(
        "ServiceOptions: default_deadline must be >= 0");
  }
  return auditor.validate();
}

AuditService::Scenario::Scenario(RecordUniverse u, World state,
                                 std::string query_text, PriorAssumption p,
                                 const ServiceOptions& opts,
                                 obs::MetricsRegistry& metrics)
    : universe(std::move(u)),
      db(universe),
      audit_query_text(std::move(query_text)),
      prior(p),
      auditor(universe, p, opts.auditor),
      audit_set(parse_query(audit_query_text)
                    ->compile(universe, auditor.resolved_backend())),
      memo(opts.cache_capacity, metrics) {
  db.set_state(state);
}

DisclosureMemo::EntryPtr AuditService::Scenario::disclosed(
    const std::string& query_text, bool answer, const Query& parsed) {
  std::string key = disclosure_key(query_text, answer);
  if (DisclosureMemo::EntryPtr hit = memo.find(key)) return hit;
  WorldSet satisfying = parsed.compile(universe, auditor.resolved_backend());
  return memo.intern(std::move(key),
                     answer ? std::move(satisfying) : ~satisfying);
}

Status AuditService::try_create(RecordUniverse universe, World initial_state,
                                const std::string& audit_query_text,
                                PriorAssumption prior, ServiceOptions options,
                                std::unique_ptr<AuditService>* out) {
  if (const Status s = options.validate(); !s.ok()) return s;
  // Decisions never fan out per pair; concurrency comes from the workers.
  options.auditor.threads = 1;
  std::unique_ptr<AuditService> service(new AuditService(std::move(options)));
  if (const Status s = service->install(std::move(universe), initial_state,
                                        audit_query_text, prior);
      !s.ok()) {
    return s;
  }
  *out = std::move(service);
  return Status::Ok();
}

AuditService::AuditService(ServiceOptions options)
    : options_(std::move(options)),
      accepted_(&metrics_.counter("service.requests.accepted")),
      rejected_(&metrics_.counter("service.requests.rejected")),
      completed_(&metrics_.counter("service.requests.completed")),
      deadline_expired_(&metrics_.counter("service.requests.deadline_expired")),
      cancelled_count_(&metrics_.counter("service.requests.cancelled")),
      denied_(&metrics_.counter("service.requests.denied")),
      parse_errors_(&metrics_.counter("service.requests.parse_errors")),
      queue_depth_(&metrics_.counter("service.queue.depth")),
      sessions_created_(&metrics_.counter("service.sessions.created")),
      reloads_(&metrics_.counter("service.reloads")),
      incremental_pinned_(&metrics_.counter("service.incremental.pinned")),
      incremental_unchanged_(
          &metrics_.counter("service.incremental.unchanged")),
      incremental_evaluated_(
          &metrics_.counter("service.incremental.evaluated")),
      parse_skips_(&metrics_.counter("service.requests.parse_skips")),
      queue_wait_ns_(&metrics_.histogram("service.request.queue_wait_ns")),
      process_ns_(&metrics_.histogram("service.request.process_ns")) {
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AuditService::~AuditService() { shutdown(); }

std::unique_ptr<AuditService::Pending> AuditService::make_pending(
    AuditRequest request, std::function<void(AuditResponse)> done) {
  auto pending = std::make_unique<Pending>();
  pending->done = std::move(done);
  pending->cancelled = std::make_shared<std::atomic<bool>>(false);
  if (request.deadline != kNoDeadline) {
    pending->deadline = request.deadline;
  } else if (options_.default_deadline.count() > 0) {
    pending->deadline =
        std::chrono::steady_clock::now() + options_.default_deadline;
  }
  pending->request = std::move(request);
  pending->enqueue_ns = now_ns();
  return pending;
}

std::unique_ptr<AuditService::Pending> AuditService::make_ticketed(
    AuditRequest request, Ticket* ticket) {
  std::unique_ptr<Pending> pending = make_pending(std::move(request), nullptr);
  std::promise<AuditResponse>& promise = pending->promise.emplace();
  ticket->response = promise.get_future();
  ticket->cancelled_ = pending->cancelled;
  // The record owns the promise and outlives its own callback.
  pending->done = [&promise](AuditResponse response) {
    promise.set_value(std::move(response));
  };
  return pending;
}

void AuditService::admit(std::span<std::unique_ptr<Pending>> batch) {
  const std::size_t n = batch.size();
  Status rejection = Status::Ok();
  std::size_t ready = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!accepting_) {
      rejection = Status::Unavailable("audit service is shutting down");
    } else if (depth_ + n > options_.queue_capacity) {
      const std::string capacity = std::to_string(options_.queue_capacity);
      rejection = Status::ResourceExhausted(
          n == 1 ? "audit service queue full (" + capacity +
                       " waiting); retry later"
                 : "audit service queue cannot admit batch of " +
                       std::to_string(n) + " (" +
                       std::to_string(options_.queue_capacity - depth_) +
                       " slots free); retry later");
    } else {
      accepted_->add(static_cast<std::int64_t>(n));
      queue_depth_->add(static_cast<std::int64_t>(n));
      depth_ += n;
      for (std::unique_ptr<Pending>& pending : batch) {
        const auto [it, idle] = waiting_.try_emplace(pending->request.user);
        if (idle) {
          queue_.push_back(std::move(pending));
          ++ready;
        } else {
          it->second.push_back(std::move(pending));
        }
      }
    }
  }
  if (ready == 1) queue_cv_.notify_one();
  if (ready > 1) queue_cv_.notify_all();
  if (rejection.ok()) return;
  rejected_->add(static_cast<std::int64_t>(n));
  for (std::unique_ptr<Pending>& pending : batch) {
    AuditResponse response;
    response.status = rejection;
    pending->done(std::move(response));
  }
}

Ticket AuditService::submit(AuditRequest request) {
  Ticket ticket;
  std::unique_ptr<Pending> pending = make_ticketed(std::move(request), &ticket);
  admit({&pending, 1});
  return ticket;
}

AuditResponse AuditService::process(AuditRequest request) {
  return submit(std::move(request)).response.get();
}

void AuditService::submit_async(AuditRequest request,
                                std::function<void(AuditResponse)> done) {
  std::unique_ptr<Pending> pending =
      make_pending(std::move(request), std::move(done));
  admit({&pending, 1});
}

std::vector<Ticket> AuditService::submit_many(
    std::vector<AuditRequest> requests) {
  std::vector<Ticket> tickets(requests.size());
  std::vector<std::unique_ptr<Pending>> batch;
  batch.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    batch.push_back(make_ticketed(std::move(requests[i]), &tickets[i]));
  }
  admit(batch);
  return tickets;
}

std::vector<AuditResponse> AuditService::process_many(
    std::vector<AuditRequest> requests) {
  std::vector<Ticket> tickets = submit_many(std::move(requests));
  std::vector<AuditResponse> responses;
  responses.reserve(tickets.size());
  for (Ticket& ticket : tickets) {
    responses.push_back(ticket.response.get());
  }
  return responses;
}

void AuditService::release_turn(const std::string& user) {
  const auto it = waiting_.find(user);
  std::list<std::unique_ptr<Pending>>& next = it->second;
  // Resets apply before the user's next audit can become visible.
  while (!next.empty() && next.front() == nullptr) {
    next.pop_front();
    drop_session(user);
  }
  if (next.empty()) {
    waiting_.erase(it);
    return;
  }
  queue_.push_back(std::move(next.front()));
  next.pop_front();
}

std::unique_ptr<AuditService::Pending> AuditService::take_ready() {
  std::unique_ptr<Pending> pending = std::move(queue_.front());
  queue_.pop_front();
  --depth_;
  queue_depth_->add(-1);
  return pending;
}

void AuditService::worker_loop() {
  // The worker's engine context, rebuilt when reload() swaps the scenario
  // (stage slots, subcube oracle and the prepared Delta classes for A all
  // belong to one scenario generation).
  std::unique_ptr<AuditContext> ctx;
  std::uint64_t ctx_generation = 0;
  // Taken in the lock section that ended the previous request, so a busy
  // worker locks the queue once per request.
  std::unique_ptr<Pending> next;

  for (;;) {
    std::unique_ptr<Pending> pending = std::move(next);
    if (!pending) {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Stopping with nothing free to start: whatever still waits behind a
      // running request is handed to queue_ by that request's worker, which
      // takes it next.
      if (queue_.empty()) return;
      pending = take_ready();
    }
    const std::int64_t start_ns = now_ns();
    queue_wait_ns_->record(start_ns - pending->enqueue_ns);

    std::shared_ptr<Scenario> scenario;
    {
      std::shared_lock<std::shared_mutex> lock(scenario_mutex_);
      scenario = scenario_;
    }
    if (!ctx || ctx_generation != scenario->generation) {
      ctx = std::make_unique<AuditContext>();
      configure_context(*ctx, *scenario);
      ctx_generation = scenario->generation;
    }

    AuditResponse response;
    try {
      response = handle(*pending, scenario, *ctx);
    } catch (const std::invalid_argument& e) {
      response.status = Status::InvalidArgument(e.what());
    } catch (const std::exception& e) {
      response.status = Status::Internal(e.what());
    }
    completed_->add(1);
    process_ns_->record(now_ns() - start_ns);
    bool more = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      // Before resolving: a caller that waited for this response and resets
      // the session next sees the reset applied at once.
      release_turn(pending->request.user);
      if (!queue_.empty()) next = take_ready();
      more = !queue_.empty();
    }
    if (more) queue_cv_.notify_one();
    pending->done(std::move(response));
  }
}

void AuditService::configure_context(AuditContext& ctx,
                                     const Scenario& scenario) const {
  ctx.reset_stages(scenario.auditor.engine().stage_names());
  if (scenario.prior == PriorAssumption::kSubcubeKnowledge) {
    ctx.set_interval_oracle(scenario.auditor.shared_subcube_oracle());
    ctx.prepare_subcube(scenario.audit_set);
  }
}

std::shared_ptr<Session> AuditService::session_for(const std::string& user,
                                                   const Scenario& scenario) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(user);
  if (it != sessions_.end() &&
      it->second->generation() == scenario.generation) {
    return it->second;
  }
  // Missing, or built for a different scenario generation (a worker that
  // raced reload() may have inserted a stale session after the map was
  // cleared): build one matching the scenario serving this request.
  auto session =
      std::make_shared<Session>(user, scenario.universe.size(),
                                scenario.generation);
  if (options_.online_strategy) {
    std::unique_ptr<OnlineAuditSession> online;
    const Status s = OnlineAuditSession::try_create(
        scenario.audit_set, scenario.db.state(), *options_.online_strategy,
        &online);
    if (!s.ok()) {
      // The scenario validated audit_set and state at construction, so
      // this cannot happen; surface loudly if it ever does.
      throw std::logic_error("AuditService: " + s.to_string());
    }
    session->attach_online(std::move(online));
  }
  sessions_created_->add(1);
  if (it != sessions_.end() && it->second->generation() > scenario.generation) {
    // This worker is finishing an in-flight request admitted before a
    // reload(); do not trample the newer session. Reload forgets everyone,
    // so a detached fresh session is the correct old-scenario view.
    return session;
  }
  if (it != sessions_.end()) sessions_.erase(it);
  sessions_.emplace(user, session);
  return session;
}

AuditResponse AuditService::handle(Pending& pending,
                                   const std::shared_ptr<Scenario>& scenario,
                                   AuditContext& ctx) {
  obs::ScopedSpan span("service.request");
  if (span.live()) {
    span.attr("user", pending.request.user);
    span.attr("query", pending.request.query_text);
  }

  AuditResponse response;
  auto expired = [&] {
    return pending.deadline != kNoDeadline &&
           std::chrono::steady_clock::now() > pending.deadline;
  };
  auto cancelled = [&] {
    return pending.cancelled->load(std::memory_order_relaxed);
  };
  auto checkpoint = [&]() -> Status {
    if (cancelled()) {
      cancelled_count_->add(1);
      return Status::Cancelled("request cancelled by caller");
    }
    if (expired()) {
      deadline_expired_->add(1);
      return Status::DeadlineExceeded("request deadline expired");
    }
    return Status::Ok();
  };

  if (Status s = checkpoint(); !s.ok()) {
    response.status = std::move(s);
    return response;
  }
  if (options_.test_hook_pre_decide) options_.test_hook_pre_decide();
  if (Status s = checkpoint(); !s.ok()) {
    response.status = std::move(s);
    return response;
  }

  // Replayed-log requests name a (query, answer) pair the memo may hold
  // already — e.g. a router rebalance replaying a whole session — in which
  // case the parse is skipped outright. Live requests always parse: the
  // database / online strategy needs the Query tree. Malformed queries
  // never reach the memo, so each one fails afresh.
  const std::string& query_text = pending.request.query_text;
  DisclosureMemo::EntryPtr disclosed;
  if (pending.request.answer.has_value()) {
    disclosed = scenario->memo.find(
        disclosure_key(query_text, *pending.request.answer));
  }
  QueryPtr parsed;
  if (disclosed) {
    parse_skips_->add(1);
  } else if (const Status s = try_parse_query(query_text, &parsed); !s.ok()) {
    parse_errors_->add(1);
    response.status = s;
    return response;
  }

  // Held for the whole request: a concurrent reload() only removes the map
  // entry, never destroys the session under the worker.
  const std::shared_ptr<Session> session_ptr =
      session_for(pending.request.user, *scenario);
  Session& session = *session_ptr;
  std::lock_guard<std::mutex> session_lock(session.mutex());

  bool answer = false;
  if (pending.request.answer.has_value()) {
    // Replayed-log mode: the client tells us what the user saw.
    answer = *pending.request.answer;
  } else if (session.online() != nullptr) {
    // Online mode with an allow/deny strategy: the strategy decides whether
    // answering is simulatably safe before anything is disclosed.
    const OnlineResponse online = session.online()->ask(
        scenario->disclosed(query_text, /*answer=*/true, *parsed)->set);
    if (online.denied) {
      denied_->add(1);
      response.denied = true;
      response.sequence = session.disclosures();
      return response;
    }
    answer = online.answer;
  } else {
    // Online mode without a strategy: evaluate against the actual database.
    answer = scenario->db.answer(*parsed);
  }
  response.answer = answer;

  if (!disclosed) disclosed = scenario->disclosed(query_text, answer, *parsed);
  const DecisionEngine& engine = scenario->auditor.engine();
  const EngineDecision disclosure_decision = scenario->memo.decision(
      *disclosed,
      [&](const WorldSet& b) {
        return engine.decide(scenario->audit_set, b, ctx);
      },
      &response.disclosure_cached);
  response.disclosure = to_finding(disclosure_decision, pending.request.user,
                                   query_text, answer);

  if (options_.test_hook_pre_absorb) options_.test_hook_pre_absorb();
  if (Status s = checkpoint(); !s.ok()) {
    // The per-disclosure verdict is already computed but the caller is gone.
    // In replayed-log mode the log says the user did see this answer, so the
    // session must still absorb it — otherwise the accumulated-knowledge set
    // under-counts and later cumulative verdicts could falsely report safe.
    // In live mode nothing was shown to the user, so nothing is absorbed.
    if (pending.request.answer.has_value()) {
      response.sequence = session.absorb(disclosed->set);
    }
    response.status = std::move(s);
    return response;
  }

  response.sequence = session.absorb(disclosed->set);
  // Delta-evaluation against the session's persistent state; the
  // service-composition model check holds it to a from-scratch decision of
  // the accumulated set at every step.
  IncrementalContext& inc = session.incremental();
  const EngineDecision cumulative_decision = engine.decide_incremental(
      scenario->audit_set, session.accumulated(), inc, ctx);
  switch (inc.last_mode) {
    case IncrementalContext::Mode::kPinned:
      incremental_pinned_->add(1);
      break;
    case IncrementalContext::Mode::kUnchanged:
      incremental_unchanged_->add(1);
      break;
    default:
      incremental_evaluated_->add(1);
      break;
  }
  response.cumulative = to_finding(
      cumulative_decision, pending.request.user,
      "<conjunction of " + std::to_string(response.sequence) +
          " answered queries>",
      /*answer=*/true);
  return response;
}

Status AuditService::install(RecordUniverse universe, World initial_state,
                             const std::string& audit_query_text,
                             PriorAssumption prior) {
  if (const Status s = validate_scenario_inputs(universe, initial_state,
                                                audit_query_text);
      !s.ok()) {
    return s;
  }
  std::shared_ptr<Scenario> fresh;
  try {
    fresh = std::make_shared<Scenario>(std::move(universe), initial_state,
                                       audit_query_text, prior, options_,
                                       metrics_);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("AuditService: ") + e.what());
  }
  std::unique_lock<std::shared_mutex> lock(scenario_mutex_);
  fresh->generation = next_generation_++;
  scenario_ = std::move(fresh);
  return Status::Ok();
}

Status AuditService::reload(RecordUniverse universe, World initial_state,
                            const std::string& audit_query_text,
                            PriorAssumption prior) {
  if (const Status s = install(std::move(universe), initial_state,
                               audit_query_text, prior);
      !s.ok()) {
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.clear();
  }
  reloads_->add(1);
  return Status::Ok();
}

Status AuditService::reset_session(const std::string& user) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  const auto it = waiting_.find(user);
  if (it == waiting_.end()) {
    drop_session(user);
  } else {
    it->second.push_back(nullptr);  // applied by release_turn()
  }
  return Status::Ok();
}

void AuditService::drop_session(const std::string& user) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.erase(user);
}

void AuditService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool AuditService::accepting() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return accepting_;
}

std::size_t AuditService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return depth_;
}

std::string AuditService::audit_query() const {
  std::shared_lock<std::shared_mutex> lock(scenario_mutex_);
  return scenario_->audit_query_text;
}

PriorAssumption AuditService::prior() const {
  std::shared_lock<std::shared_mutex> lock(scenario_mutex_);
  return scenario_->prior;
}

obs::MetricsSnapshot AuditService::metrics_snapshot() const {
  return metrics_.snapshot();
}

}  // namespace service
}  // namespace epi
