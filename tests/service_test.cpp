// Tests for the concurrent audit service (src/service/): Prop. 3.10 parity
// between streamed sessions and the offline auditor, the disclosure memo
// (two keys one set, the bound, LRU eviction, reload), admission control and
// backpressure, deadlines and cancellation, graceful shutdown, and the wire
// protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/audit_log.h"
#include "core/auditor.h"
#include "db/parser.h"
#include "engine/criterion_stage.h"
#include "engine/decision_engine.h"
#include "obs/metrics.h"
#include "service/audit_service.h"
#include "service/disclosure_memo.h"
#include "service/protocol.h"
#include "service/session.h"
#include "util/status.h"
#include "worlds/world_set.h"

namespace epi {
namespace service {
namespace {

RecordUniverse hospital_universe() {
  RecordUniverse u;
  u.add("bob_hiv");          // coordinate 0
  u.add("bob_transfusion");  // coordinate 1
  u.add("bob_hepatitis");    // coordinate 2
  return u;
}

constexpr World kHivAndTransfusion = 0b011;

ServiceOptions small_service_options() {
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.cache_capacity = 64;
  return options;
}

std::unique_ptr<AuditService> make_service(
    ServiceOptions options = small_service_options(),
    PriorAssumption prior = PriorAssumption::kProduct) {
  std::unique_ptr<AuditService> service;
  const Status s =
      AuditService::try_create(hospital_universe(), kHivAndTransfusion,
                               "bob_hiv", prior, std::move(options), &service);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return service;
}

void expect_same_finding(const AuditFinding& got, const AuditFinding& want) {
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.certified, want.certified);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.user, want.user);
  EXPECT_EQ(got.query_text, want.query_text);
  EXPECT_EQ(got.answer, want.answer);
}

// --- Prop. 3.10 / offline parity ------------------------------------------

struct Replay {
  std::string user;
  std::string query;
  bool answer;
};

const std::vector<Replay>& replay_log() {
  static const std::vector<Replay> log = {
      {"alice", "bob_hiv", true},
      {"alice", "bob_hiv -> bob_transfusion", true},
      {"cindy", "bob_hiv & bob_hepatitis", false},
      {"alice", "atmost(0, bob_hepatitis)", true},
      {"cindy", "bob_transfusion", true},
  };
  return log;
}

// Streaming k disclosures through per-user sessions must produce, at every
// step, exactly the verdicts the offline Auditor computes for the same log:
// per-disclosure findings match entry by entry, and the k-th cumulative
// finding equals the offline per-user conjunction Safe(A, B1 cap ... cap Bk)
// (Def. 3.9 / Prop. 3.10: acquiring B1, ..., Bk one at a time is acquiring
// their intersection).
TEST(ServiceParity, StreamedSessionsMatchOfflineAuditor) {
  for (const PriorAssumption prior :
       {PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
        PriorAssumption::kSubcubeKnowledge}) {
    std::unique_ptr<AuditService> service =
        make_service(small_service_options(), prior);
    ASSERT_NE(service, nullptr);

    std::vector<AuditResponse> responses;
    for (const Replay& r : replay_log()) {
      AuditRequest request;
      request.user = r.user;
      request.query_text = r.query;
      request.answer = r.answer;  // replayed-log mode
      responses.push_back(service->process(std::move(request)));
      ASSERT_TRUE(responses.back().status.ok())
          << responses.back().status.to_string();
    }

    AuditorOptions offline_options;
    offline_options.threads = 1;
    Auditor auditor(hospital_universe(), prior, offline_options);
    AuditLog log;
    for (const Replay& r : replay_log()) {
      log.record_with_answer(r.user, r.query, r.answer);
    }
    const AuditReport offline = auditor.audit(log, "bob_hiv");

    ASSERT_EQ(responses.size(), offline.per_disclosure.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      expect_same_finding(responses[i].disclosure, offline.per_disclosure[i]);
    }

    // The last response per user carries that user's full conjunction.
    ASSERT_EQ(offline.per_user_cumulative.size(), 2u);
    expect_same_finding(responses[3].cumulative,
                        offline.per_user_cumulative[0]);  // alice, k = 3
    expect_same_finding(responses[4].cumulative,
                        offline.per_user_cumulative[1]);  // cindy, k = 2
    EXPECT_EQ(responses[3].sequence, 3u);
    EXPECT_EQ(responses[4].sequence, 2u);
  }
}

// Same log, concurrent submission: per-user verdict sequences must not
// depend on scheduling (requests for one user serialize on the session).
TEST(ServiceParity, ConcurrentUsersMatchOfflineAuditor) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);

  auto stream_user = [&](const std::string& user) {
    std::vector<AuditResponse> out;
    for (const Replay& r : replay_log()) {
      if (r.user != user) continue;
      AuditRequest request;
      request.user = user;
      request.query_text = r.query;
      request.answer = r.answer;
      out.push_back(service->process(request));
    }
    return out;
  };
  auto alice_future =
      std::async(std::launch::async, stream_user, std::string("alice"));
  const std::vector<AuditResponse> cindy = stream_user("cindy");
  const std::vector<AuditResponse> alice = alice_future.get();

  AuditorOptions offline_options;
  offline_options.threads = 1;
  Auditor auditor(hospital_universe(), PriorAssumption::kProduct,
                  offline_options);
  AuditLog log;
  for (const Replay& r : replay_log()) {
    log.record_with_answer(r.user, r.query, r.answer);
  }
  const AuditReport offline = auditor.audit(log, "bob_hiv");

  ASSERT_EQ(alice.size(), 3u);
  ASSERT_EQ(cindy.size(), 2u);
  EXPECT_EQ(alice.back().cumulative.verdict,
            offline.per_user_cumulative[0].verdict);
  EXPECT_EQ(alice.back().cumulative.method,
            offline.per_user_cumulative[0].method);
  EXPECT_EQ(cindy.back().cumulative.verdict,
            offline.per_user_cumulative[1].verdict);
  EXPECT_EQ(cindy.back().cumulative.method,
            offline.per_user_cumulative[1].method);
}

// Without a replayed answer the service evaluates against its own database.
TEST(Service, EvaluatesQueriesAgainstDatabaseState) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);
  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv & bob_transfusion";
  const AuditResponse response = service->process(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_TRUE(response.answer);  // both records are in kHivAndTransfusion

  AuditRequest negative;
  negative.user = "alice";
  negative.query_text = "bob_hepatitis";
  EXPECT_FALSE(service->process(std::move(negative)).answer);
}

TEST(Service, MalformedQueryReturnsInvalidArgument) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);
  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv &&& nope";
  const AuditResponse response = service->process(std::move(request));
  EXPECT_EQ(response.status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(service->metrics_snapshot().counter("service.requests.parse_errors"),
            1);
}

// --- Construction / reload validation -------------------------------------

TEST(Service, TryCreateRejectsBadInputs) {
  std::unique_ptr<AuditService> service;
  ServiceOptions options = small_service_options();

  Status s = AuditService::try_create(RecordUniverse{}, 0, "x",
                                      PriorAssumption::kProduct, options,
                                      &service);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);

  s = AuditService::try_create(hospital_universe(), /*initial_state=*/8,
                               "bob_hiv", PriorAssumption::kProduct, options,
                               &service);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);

  s = AuditService::try_create(hospital_universe(), 0, "bob_hiv &&& nope",
                               PriorAssumption::kProduct, options, &service);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);

  options.workers = 0;
  s = AuditService::try_create(hospital_universe(), 0, "bob_hiv",
                               PriorAssumption::kProduct, options, &service);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);

  EXPECT_EQ(service, nullptr);  // untouched throughout
}

TEST(Service, ReloadResetsSessionsAndInvalidatesCache) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  AuditResponse first = service->process(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.sequence, 1u);
  EXPECT_FALSE(first.disclosure_cached);

  AuditResponse repeat = service->process(request);
  EXPECT_TRUE(repeat.disclosure_cached);
  EXPECT_EQ(repeat.sequence, 2u);

  const Status s = service->reload(hospital_universe(), kHivAndTransfusion,
                                   "bob_hiv", PriorAssumption::kProduct);
  ASSERT_TRUE(s.ok()) << s.to_string();

  // Fresh session (sequence restarts) and an empty memo (the engine
  // re-decides): the old scenario's memo went with it.
  AuditResponse after = service->process(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.sequence, 1u);
  EXPECT_FALSE(after.disclosure_cached);
  const obs::MetricsSnapshot metrics = service->metrics_snapshot();
  EXPECT_EQ(metrics.counter("service.reloads"), 1);

  EXPECT_EQ(service
                ->reload(hospital_universe(), /*initial_state=*/99, "bob_hiv",
                         PriorAssumption::kProduct)
                .code(),
            Status::Code::kInvalidArgument);
}

// A reset_session (wire-exposed) racing an in-flight request for the same
// user must not disturb the Session a worker is using: the reset waits for
// that request, and the next request starts fresh.
TEST(Service, ResetSessionDuringRequestIsSafe) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_absorb = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  Ticket ticket = service->submit(request);
  while (entered.load() == 0) std::this_thread::yield();
  // The worker now holds alice's session (post-decide, pre-absorb).
  ASSERT_TRUE(service->reset_session("alice").ok());
  release.set_value();

  const AuditResponse first = ticket.response.get();
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_EQ(first.sequence, 1u);
  // The reset took effect for subsequent requests: a fresh session.
  EXPECT_EQ(service->process(request).sequence, 1u);
}

// A reload racing an in-flight request must not let a session built for the
// old universe serve requests under the new scenario (absorb() would mix
// WorldSets from different universes).
TEST(Service, ReloadDuringRequestDoesNotLeakStaleSession) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_decide = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  Ticket stale = service->submit(request);
  while (entered.load() == 0) std::this_thread::yield();

  // Swap to a *larger* universe while the worker is parked before
  // session_for: the worker will re-insert an old-universe session after
  // reload cleared the map — exactly the race under test.
  RecordUniverse bigger = hospital_universe();
  bigger.add("bob_diabetes");  // coordinate 3
  ASSERT_TRUE(service
                  ->reload(bigger, kHivAndTransfusion, "bob_hiv",
                           PriorAssumption::kProduct)
                  .ok());
  release.set_value();

  // The stale request completes coherently against the scenario it started
  // with (reload's documented semantics).
  const AuditResponse old_response = stale.response.get();
  ASSERT_TRUE(old_response.status.ok()) << old_response.status.to_string();
  EXPECT_EQ(old_response.sequence, 1u);

  // A request under the new scenario must get a session built for the new
  // universe (sequence restarts; no size-mismatch intersection).
  AuditRequest fresh;
  fresh.user = "alice";
  fresh.query_text = "bob_diabetes";
  fresh.answer = true;
  const AuditResponse new_response = service->process(fresh);
  ASSERT_TRUE(new_response.status.ok()) << new_response.status.to_string();
  EXPECT_EQ(new_response.sequence, 1u);
  EXPECT_EQ(service->process(fresh).sequence, 2u);
}

// In replayed-log mode the log says the user saw the answer, so a deadline
// that expires after the disclosure verdict must still absorb it — the
// accumulated-knowledge set may never under-count what the user knows.
TEST(Service, ReplayModeAbsorbsDisclosureOnDeadlineExpiry) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_absorb = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  // Wide enough that the worker reliably reaches the pre-absorb hook (where
  // it parks) before the deadline can expire at an earlier checkpoint.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;  // replayed-log mode
  request.deadline = deadline;
  Ticket ticket = service->submit(request);
  while (entered.load() == 0) std::this_thread::yield();
  // Let the deadline lapse while the worker sits between the disclosure
  // verdict and the absorb checkpoint, then release it.
  std::this_thread::sleep_until(deadline + std::chrono::milliseconds(5));
  release.set_value();

  const AuditResponse expired = ticket.response.get();
  EXPECT_EQ(expired.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(expired.sequence, 1u);  // absorbed despite the expiry

  // The next replayed disclosure continues the sequence: the expired one
  // counts toward alice's accumulated knowledge.
  AuditRequest next;
  next.user = "alice";
  next.query_text = "bob_transfusion";
  next.answer = true;
  const AuditResponse response = service->process(std::move(next));
  ASSERT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_EQ(response.sequence, 2u);
}

TEST(Service, ResetSessionForgetsAccumulatedKnowledge) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);
  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  EXPECT_EQ(service->process(request).sequence, 1u);
  EXPECT_EQ(service->process(request).sequence, 2u);
  ASSERT_TRUE(service->reset_session("alice").ok());
  EXPECT_EQ(service->process(request).sequence, 1u);
  EXPECT_TRUE(service->reset_session("nobody").ok());
}

// A reset takes its place in the user's admission order: it applies after
// the requests admitted before it, however far they are from running.
TEST(Service, ResetSessionTakesEffectAfterAdmittedRequests) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_decide = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  Ticket first = service->submit(request);
  // The worker is parked before it reaches alice's session.
  while (entered.load() == 0) std::this_thread::yield();
  Ticket second = service->submit(request);
  ASSERT_TRUE(service->reset_session("alice").ok());
  Ticket third = service->submit(request);
  EXPECT_EQ(service->queue_depth(), 2u);  // the reset takes no queue slot

  release.set_value();
  EXPECT_EQ(first.response.get().sequence, 1u);
  EXPECT_EQ(second.response.get().sequence, 2u);
  EXPECT_EQ(third.response.get().sequence, 1u);
}

// --- Incremental session evaluation (DESIGN.md section 11) ----------------

void expect_decided(const AuditFinding& got, const EngineDecision& want) {
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.certified, want.certified);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.numeric_gap, want.numeric_gap);
}

// Every response against from-scratch engine decisions on a context
// prepared the way the service prepares its workers': the disclosure finding
// is Safe(A, B), the cumulative one Safe(A, S_k) for the intersection S_k of
// the user's first k disclosures, and the sequence number is k.
TEST(ServiceIncremental, ResponsesMatchFromScratchDecisions) {
  const RecordUniverse universe = hospital_universe();
  for (const PriorAssumption prior :
       {PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
        PriorAssumption::kSubcubeKnowledge}) {
    SCOPED_TRACE(::testing::Message() << "prior " << to_string(prior));
    std::unique_ptr<AuditService> service =
        make_service(small_service_options(), prior);
    ASSERT_NE(service, nullptr);

    AuditorOptions options;
    options.threads = 1;
    const Auditor auditor(universe, prior, options);
    const DecisionEngine& engine = auditor.engine();
    const WorldSet a = parse_query("bob_hiv")->compile(universe);
    AuditContext ctx;
    ctx.reset_stages(engine.stage_names());
    if (prior == PriorAssumption::kSubcubeKnowledge) {
      ctx.set_interval_oracle(auditor.shared_subcube_oracle());
      ctx.prepare_subcube(a);
    }

    std::map<std::string, std::pair<WorldSet, std::uint64_t>> knowledge;
    for (const Replay& r : replay_log()) {
      AuditRequest request;
      request.user = r.user;
      request.query_text = r.query;
      request.answer = r.answer;
      const AuditResponse got = service->process(std::move(request));
      ASSERT_TRUE(got.status.ok()) << got.status.to_string();

      const WorldSet satisfying = parse_query(r.query)->compile(universe);
      const WorldSet b = r.answer ? satisfying : ~satisfying;
      auto& [s, k] =
          knowledge.try_emplace(r.user, WorldSet::universe(3), 0).first->second;
      s &= b;
      ++k;
      expect_decided(got.disclosure, engine.decide(a, b, ctx));
      expect_decided(got.cumulative, engine.decide(a, s, ctx));
      EXPECT_EQ(got.sequence, k);
    }
  }
}

// The three serve tiers, driven one by one: a first disclosure evaluates, a
// repeat of known information serves the recorded verdict (S unchanged), and
// once a disclosure empties A cap S the monotone Safe verdict pins — every
// later verdict is served without touching the cascade.
TEST(ServiceIncremental, CountersTrackServeTiers) {
  std::unique_ptr<AuditService> service = make_service(
      small_service_options(), PriorAssumption::kSubcubeKnowledge);
  ASSERT_NE(service, nullptr);

  auto replayed = [&](const std::string& query) {
    AuditRequest request;
    request.user = "alice";
    request.query_text = query;
    request.answer = true;
    const AuditResponse response = service->process(std::move(request));
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    return response;
  };

  replayed("bob_transfusion");  // first verdict: evaluated
  replayed("bob_transfusion");  // same knowledge again: S unchanged
  replayed("!bob_hiv");         // empties A cap S: evaluated, then pinned
  const AuditResponse pinned = replayed("bob_hepatitis");
  EXPECT_EQ(pinned.cumulative.verdict, Verdict::kSafe);

  const obs::MetricsSnapshot metrics = service->metrics_snapshot();
  EXPECT_EQ(metrics.counter("service.incremental.evaluated"), 2);
  EXPECT_EQ(metrics.counter("service.incremental.unchanged"), 1);
  EXPECT_EQ(metrics.counter("service.incremental.pinned"), 1);
}

// Replayed-log disclosures are parsed once per distinct (query, answer):
// re-sends hit the compiled map and skip try_parse_query entirely. Parse
// errors are never cached — each malformed send fails afresh.
TEST(ServiceIncremental, ReplayedDisclosuresParseOnce) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv & bob_transfusion";
  request.answer = true;
  for (int i = 0; i < 3; ++i) {
    AuditRequest copy = request;
    ASSERT_TRUE(service->process(std::move(copy)).status.ok());
  }
  EXPECT_EQ(
      service->metrics_snapshot().counter("service.requests.parse_skips"), 2);

  AuditRequest malformed;
  malformed.user = "alice";
  malformed.query_text = "bob_hiv &";
  malformed.answer = true;
  for (int i = 0; i < 2; ++i) {
    AuditRequest copy = malformed;
    EXPECT_EQ(service->process(std::move(copy)).status.code(),
              Status::Code::kInvalidArgument);
  }
  const obs::MetricsSnapshot metrics = service->metrics_snapshot();
  EXPECT_EQ(metrics.counter("service.requests.parse_errors"), 2);
  EXPECT_EQ(metrics.counter("service.requests.parse_skips"), 2);
}

// reset_session drops the per-session incremental state with the session:
// a pinned verdict must not survive into the fresh session.
TEST(ServiceIncremental, ResetSessionDropsPinnedState) {
  std::unique_ptr<AuditService> service = make_service(
      small_service_options(), PriorAssumption::kSubcubeKnowledge);
  ASSERT_NE(service, nullptr);

  auto replayed = [&](const std::string& query) {
    AuditRequest request;
    request.user = "alice";
    request.query_text = query;
    request.answer = true;
    return service->process(std::move(request));
  };

  ASSERT_TRUE(replayed("!bob_hiv").status.ok());  // A cap S empty: pinned
  ASSERT_EQ(replayed("bob_hiv").cumulative.verdict, Verdict::kSafe);
  ASSERT_EQ(service->metrics_snapshot().counter("service.incremental.pinned"),
            1);

  ASSERT_TRUE(service->reset_session("alice").ok());

  // Fresh session: "bob_hiv" alone makes the accumulated set A itself,
  // which is unsafe — a leaked pin would have served Safe.
  const AuditResponse fresh = replayed("bob_hiv");
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.to_string();
  EXPECT_EQ(fresh.sequence, 1u);
  EXPECT_EQ(fresh.cumulative.verdict, Verdict::kUnsafe);
  EXPECT_EQ(service->metrics_snapshot().counter("service.incremental.pinned"),
            1);
}

// --- Deadlines, cancellation, backpressure, shutdown ----------------------

TEST(Service, ExpiredDeadlineShortCircuits) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);
  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const AuditResponse response = service->process(std::move(request));
  EXPECT_EQ(response.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(
      service->metrics_snapshot().counter("service.requests.deadline_expired"),
      1);
}

TEST(Service, CancelledTicketResolvesWithCancelled) {
  // One worker parked in the test hook; cancel the request it holds.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> entered{false};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_decide = [&] {
    entered.store(true);
    released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  Ticket ticket = service->submit(std::move(request));
  while (!entered.load()) std::this_thread::yield();
  ticket.cancel();
  release.set_value();
  const AuditResponse response = ticket.response.get();
  EXPECT_EQ(response.status.code(), Status::Code::kCancelled);
  EXPECT_EQ(service->metrics_snapshot().counter("service.requests.cancelled"),
            1);
}

TEST(Service, FullQueueRejectsWithResourceExhausted) {
  // One worker parked in the test hook + capacity-1 queue: the first request
  // occupies the worker, the second fills the queue, the third must bounce.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> entered{false};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.queue_capacity = 1;
  options.test_hook_pre_decide = [&] {
    entered.store(true);
    released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  Ticket first = service->submit(request);
  while (!entered.load()) std::this_thread::yield();
  Ticket second = service->submit(request);
  EXPECT_EQ(service->queue_depth(), 1u);

  Ticket third = service->submit(request);
  const AuditResponse rejected = third.response.get();  // resolved immediately
  EXPECT_EQ(rejected.status.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(service->metrics_snapshot().counter("service.requests.rejected"),
            1);

  release.set_value();
  EXPECT_TRUE(first.response.get().status.ok());
  EXPECT_TRUE(second.response.get().status.ok());
}

TEST(Service, ProcessManyMatchesSequentialProcess) {
  // Batch admission is a queueing optimization only: responses[i] must carry
  // the verdicts a sequential submit loop would produce for the same stream
  // (same-user requests keep their submission order through the queue).
  // Under the subcube prior, sessions on the two workers read the Delta
  // classes of a prepared audit they share.
  std::vector<AuditRequest> requests;
  for (const Replay& entry : replay_log()) {
    AuditRequest request;
    request.user = entry.user;
    request.query_text = entry.query;
    request.answer = entry.answer;
    requests.push_back(std::move(request));
  }

  for (const PriorAssumption prior :
       {PriorAssumption::kProduct, PriorAssumption::kSubcubeKnowledge}) {
    SCOPED_TRACE(::testing::Message() << "prior " << to_string(prior));
    std::unique_ptr<AuditService> batched =
        make_service(small_service_options(), prior);
    ASSERT_NE(batched, nullptr);
    const std::vector<AuditResponse> batch = batched->process_many(requests);

    std::unique_ptr<AuditService> sequential =
        make_service(small_service_options(), prior);
    ASSERT_NE(sequential, nullptr);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "request[" << i << "]");
      const AuditResponse want = sequential->process(requests[i]);
      ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.to_string();
      ASSERT_TRUE(want.status.ok()) << want.status.to_string();
      EXPECT_EQ(batch[i].answer, want.answer);
      EXPECT_EQ(batch[i].sequence, want.sequence);
      expect_same_finding(batch[i].disclosure, want.disclosure);
      expect_same_finding(batch[i].cumulative, want.cumulative);
    }
  }
}

// Admission keeps a FIFO per user: with alice's first request parked in a
// worker, her second must wait for it even though the other worker is free,
// while bob's request overtakes both.
TEST(Service, SameUserRequestsStartInAdmissionOrder) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 2;
  options.test_hook_pre_decide = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest alice;
  alice.user = "alice";
  alice.query_text = "bob_hiv";
  alice.answer = true;
  Ticket first = service->submit(alice);
  while (entered.load() == 0) std::this_thread::yield();
  Ticket second = service->submit(alice);
  AuditRequest bob = alice;
  bob.user = "bob";
  const AuditResponse bob_response = service->submit(bob).response.get();
  ASSERT_TRUE(bob_response.status.ok()) << bob_response.status.to_string();
  EXPECT_EQ(bob_response.sequence, 1u);
  // alice's first and bob's request have reached the hook; her second has
  // not started.
  EXPECT_EQ(entered.load(), 2);
  EXPECT_EQ(service->queue_depth(), 1u);

  release.set_value();
  EXPECT_EQ(first.response.get().sequence, 1u);
  EXPECT_EQ(second.response.get().sequence, 2u);
}

TEST(Service, SubmitManyIsAllOrNothing) {
  // A batch that cannot fit entirely must admit nothing: every ticket
  // resolves ResourceExhausted and the queue stays available for smaller
  // submissions (no partially-admitted sweep).
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> entered{false};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.queue_capacity = 2;
  options.test_hook_pre_decide = [&] {
    entered.store(true);
    released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  Ticket parked = service->submit(request);
  while (!entered.load()) std::this_thread::yield();

  // Queue has 2 free slots; a batch of 3 must bounce in full.
  std::vector<Ticket> tickets =
      service->submit_many({request, request, request});
  ASSERT_EQ(tickets.size(), 3u);
  for (Ticket& ticket : tickets) {
    const AuditResponse r = ticket.response.get();
    EXPECT_EQ(r.status.code(), Status::Code::kResourceExhausted);
  }
  EXPECT_EQ(service->queue_depth(), 0u);

  // A batch that fits is admitted whole.
  std::vector<Ticket> admitted = service->submit_many({request, request});
  EXPECT_EQ(service->queue_depth(), 2u);
  release.set_value();
  EXPECT_TRUE(parked.response.get().status.ok());
  for (Ticket& ticket : admitted) {
    EXPECT_TRUE(ticket.response.get().status.ok());
  }
}

TEST(Service, GracefulShutdownDrainsAcceptedRequests) {
  // Park the single worker, stack up two more requests, then shut down while
  // they are still queued: shutdown must resolve both, not abandon them.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServiceOptions options = small_service_options();
  options.workers = 1;
  options.test_hook_pre_decide = [&] {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  AuditRequest request;
  request.user = "alice";
  request.query_text = "bob_hiv";
  request.answer = true;
  std::vector<Ticket> tickets;
  tickets.push_back(service->submit(request));
  while (entered.load() == 0) std::this_thread::yield();
  tickets.push_back(service->submit(request));
  tickets.push_back(service->submit(request));
  EXPECT_EQ(service->queue_depth(), 2u);

  std::thread stopper([&] { service->shutdown(); });
  while (service->accepting()) std::this_thread::yield();

  // Admission is closed; new submissions resolve immediately as Unavailable.
  Ticket late = service->submit(request);
  EXPECT_EQ(late.response.get().status.code(), Status::Code::kUnavailable);

  release.set_value();
  stopper.join();
  for (Ticket& ticket : tickets) {
    const AuditResponse response = ticket.response.get();
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  }
  service->shutdown();  // idempotent
}

// --- Online mode ----------------------------------------------------------

TEST(ServiceOnline, StrategyDeniesUnsafeQueriesWithoutDisclosing) {
  ServiceOptions options = small_service_options();
  options.online_strategy = OnlineStrategy::kSimulatable;
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  // Asking for the sensitive record itself can never be simulatably safe.
  AuditRequest unsafe;
  unsafe.user = "mallory";
  unsafe.query_text = "bob_hiv";
  const AuditResponse denied = service->process(std::move(unsafe));
  ASSERT_TRUE(denied.status.ok()) << denied.status.to_string();
  EXPECT_TRUE(denied.denied);
  EXPECT_EQ(denied.sequence, 0u);  // nothing was disclosed or absorbed

  // A tautology discloses nothing and is always answerable.
  AuditRequest safe;
  safe.user = "mallory";
  safe.query_text = "bob_hiv -> bob_hiv";
  const AuditResponse answered = service->process(std::move(safe));
  ASSERT_TRUE(answered.status.ok()) << answered.status.to_string();
  EXPECT_FALSE(answered.denied);
  EXPECT_TRUE(answered.answer);
  EXPECT_EQ(answered.sequence, 1u);
  EXPECT_EQ(service->metrics_snapshot().counter("service.requests.denied"), 1);
}

// --- Session --------------------------------------------------------------

TEST(SessionTest, AbsorbIntersectsAndCounts) {
  Session session("alice", 2);
  EXPECT_EQ(session.accumulated(), WorldSet::universe(2));
  EXPECT_EQ(session.disclosures(), 0u);
  EXPECT_EQ(session.absorb(WorldSet(2, {1, 3})), 1u);
  EXPECT_EQ(session.absorb(WorldSet(2, {2, 3})), 2u);
  EXPECT_EQ(session.accumulated(), WorldSet(2, {3}));
}

// --- Disclosure memo ------------------------------------------------------

EngineDecision safe_decision(const std::string& method) {
  EngineDecision d;
  d.verdict = Verdict::kSafe;
  d.method = method;
  d.certified = true;
  return d;
}

TEST(VerdictCacheTest, EvictsLeastRecentlyUsed) {
  obs::MetricsRegistry metrics;
  DisclosureMemo memo(/*capacity=*/2, metrics);
  auto decide_m1 = [](const WorldSet&) { return safe_decision("m1"); };
  bool cached = true;

  const DisclosureMemo::EntryPtr b0 = memo.intern("b0", WorldSet(3, {0}));
  const DisclosureMemo::EntryPtr b1 = memo.intern("b1", WorldSet(3, {2}));
  // A second key compiling to b1's set joins its entry.
  EXPECT_EQ(memo.intern("b1'", WorldSet(3, {2})), b1);
  memo.decision(*b1, decide_m1, &cached);
  EXPECT_FALSE(cached);
  // Touch b0 so b1 is the LRU victim when b2 arrives.
  EXPECT_EQ(memo.find("b0"), b0);
  memo.intern("b2", WorldSet(3, {4}));

  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find("b0"), b0);
  EXPECT_NE(memo.find("b2"), nullptr);
  // The eviction dropped both of b1's keys...
  EXPECT_EQ(memo.find("b1"), nullptr);
  EXPECT_EQ(memo.find("b1'"), nullptr);
  EXPECT_EQ(metrics.snapshot().counter("service.cache.evictions"), 1);
  // ...while a worker still holding b1 keeps its set and decision.
  EXPECT_EQ(b1->set, WorldSet(3, {2}));
  EXPECT_EQ(memo.decision(*b1, decide_m1, &cached).method, "m1");
  EXPECT_TRUE(cached);
  EXPECT_NE(memo.intern("b1", WorldSet(3, {2})), b1);

  // Capacity 0 keeps nothing.
  DisclosureMemo none(/*capacity=*/0, metrics);
  EXPECT_NE(none.intern("b0", WorldSet(3, {0})), nullptr);
  EXPECT_EQ(none.find("b0"), nullptr);
  EXPECT_EQ(none.size(), 0u);
}

// `bob_hiv` answered no and `!bob_hiv` answered yes disclose one set: the
// second key joins the first's memo entry and is served its verdict.
TEST(Service, KeysOfOneSetShareOneVerdict) {
  std::unique_ptr<AuditService> service = make_service();
  ASSERT_NE(service, nullptr);
  AuditRequest no;
  no.user = "alice";
  no.query_text = "bob_hiv";
  no.answer = false;
  const AuditResponse first = service->process(no);
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_FALSE(first.disclosure_cached);

  AuditRequest yes;
  yes.user = "alice";
  yes.query_text = "!bob_hiv";
  yes.answer = true;
  const AuditResponse second = service->process(yes);
  ASSERT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_TRUE(second.disclosure_cached);
  EXPECT_EQ(second.disclosure.verdict, first.disclosure.verdict);
  EXPECT_EQ(second.disclosure.method, first.disclosure.method);
  EXPECT_EQ(second.disclosure.detail, first.disclosure.detail);
  EXPECT_EQ(service->metrics_snapshot().counter("service.cache.misses"), 1);
}

// The memo holds cache_capacity distinct sets: six distinct disclosures
// through a capacity of 4 evict two, and an evicted disclosure is decided
// afresh to the same finding.
TEST(Service, MemoHoldsAtMostCacheCapacitySets) {
  ServiceOptions options = small_service_options();
  options.cache_capacity = 4;
  std::unique_ptr<AuditService> service = make_service(std::move(options));
  ASSERT_NE(service, nullptr);

  const std::vector<std::string> queries = {
      "bob_hiv",
      "bob_transfusion",
      "bob_hepatitis",
      "bob_hiv & bob_transfusion",
      "bob_hiv | bob_hepatitis",
      "bob_transfusion & bob_hepatitis"};
  std::vector<AuditResponse> responses;
  for (const std::string& query : queries) {
    AuditRequest request;
    request.user = "alice";
    request.query_text = query;
    request.answer = true;
    responses.push_back(service->process(std::move(request)));
    ASSERT_TRUE(responses.back().status.ok());
    EXPECT_FALSE(responses.back().disclosure_cached);
  }
  EXPECT_EQ(service->metrics_snapshot().counter("service.cache.evictions"), 2);

  AuditRequest first;
  first.user = "alice";
  first.query_text = queries[0];
  first.answer = true;
  const AuditResponse again = service->process(std::move(first));
  ASSERT_TRUE(again.status.ok());
  EXPECT_FALSE(again.disclosure_cached);
  expect_same_finding(again.disclosure, responses[0].disclosure);
  EXPECT_EQ(again.disclosure.numeric_gap, responses[0].disclosure.numeric_gap);
  const obs::MetricsSnapshot metrics = service->metrics_snapshot();
  EXPECT_EQ(metrics.counter("service.cache.misses"), 7);
  EXPECT_EQ(metrics.counter("service.cache.evictions"), 3);
}

// --- Wire protocol --------------------------------------------------------

TEST(Protocol, RequestRoundTrips) {
  WireRequest request;
  request.op = Op::kAudit;
  request.id = 42;
  request.user = "alice \"quoted\"";
  request.query = "bob_hiv -> bob_transfusion";
  request.answer = true;
  request.deadline_ms = 250;

  WireRequest parsed;
  ASSERT_TRUE(parse_request(serialize_request(request), &parsed).ok());
  EXPECT_EQ(parsed.op, Op::kAudit);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.user, request.user);
  EXPECT_EQ(parsed.query, request.query);
  ASSERT_TRUE(parsed.answer.has_value());
  EXPECT_TRUE(*parsed.answer);
  EXPECT_EQ(parsed.deadline_ms, 250);

  for (const Op op : {Op::kHello, Op::kMetrics, Op::kShutdown}) {
    WireRequest control;
    control.op = op;
    control.id = 7;
    WireRequest back;
    ASSERT_TRUE(parse_request(serialize_request(control), &back).ok())
        << to_string(op);
    EXPECT_EQ(back.op, op);
    EXPECT_FALSE(back.answer.has_value());
  }
}

TEST(Protocol, ResponseRoundTrips) {
  WireResponse response;
  response.id = 9;
  response.ok = true;
  response.answer = true;
  response.verdict = "unsafe";
  response.method = "projected[1/3]+box-necessary";
  response.certified = true;
  response.cached = true;
  response.cumulative_verdict = "unsafe";
  response.cumulative_method = "projected[1/3]+box-necessary";
  response.sequence = 3;

  WireResponse parsed;
  ASSERT_TRUE(parse_response(serialize_response(response), &parsed).ok());
  EXPECT_EQ(parsed.id, 9u);
  EXPECT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.answer);
  EXPECT_EQ(parsed.verdict, "unsafe");
  EXPECT_EQ(parsed.method, "projected[1/3]+box-necessary");
  EXPECT_TRUE(parsed.certified);
  EXPECT_TRUE(parsed.cached);
  EXPECT_EQ(parsed.sequence, 3u);
}

TEST(Protocol, MalformedFramesAreInvalidArgument) {
  WireRequest request;
  const char* bad[] = {
      "",                                      // not an object
      "{\"op\": \"audit\"",                    // truncated
      "{\"op\": \"explode\", \"id\": 1}",      // unknown op
      "{\"op\": \"audit\", \"id\": 1}",        // audit without user/query
      "{\"op\": {\"nested\": 1}, \"id\": 1}",  // nesting is rejected
      "{\"op\": \"audit\", \"id\": 1, \"user\": \"u\", \"query\": \"q\","
      " \"deadline_ms\": -5}",                 // negative deadline
      "{\"op\": \"audit\", \"id\": \"one\", \"user\": \"u\","
      " \"query\": \"q\"}",                    // wrong type for id
  };
  for (const char* line : bad) {
    EXPECT_EQ(parse_request(line, &request).code(),
              Status::Code::kInvalidArgument)
        << line;
  }
}

// A hostile digit run must come back as InvalidArgument, never as a thrown
// std::out_of_range escaping onto a connection thread (process-killing DoS).
TEST(Protocol, NumberOutOfRangeIsStatusNotThrow) {
  WireRequest request;
  const char* bad[] = {
      "{\"op\": \"audit\", \"id\": 99999999999999999999999,"
      " \"user\": \"u\", \"query\": \"q\"}",
      "{\"op\": \"audit\", \"id\": -99999999999999999999999,"
      " \"user\": \"u\", \"query\": \"q\"}",
  };
  for (const char* line : bad) {
    const Status s = parse_request(line, &request);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << line;
    EXPECT_NE(s.to_string().find("out of range"), std::string::npos) << line;
  }
  // A 4096-digit run is still just InvalidArgument.
  const std::string huge =
      "{\"op\": \"audit\", \"id\": " + std::string(4096, '9') +
      ", \"user\": \"u\", \"query\": \"q\"}";
  EXPECT_EQ(parse_request(huge, &request).code(),
            Status::Code::kInvalidArgument);
  // int64 extremes still parse.
  WireRequest ok;
  ASSERT_TRUE(parse_request("{\"op\": \"audit\", \"id\": 9223372036854775807,"
                            " \"user\": \"u\", \"query\": \"q\"}",
                            &ok)
                  .ok());
  EXPECT_EQ(ok.id, 9223372036854775807u);
}

// \u escapes decode to UTF-8 (surrogate pairs included), so non-ASCII user
// names round-trip instead of collapsing to '?' — two distinct users must
// never merge into one session key.
TEST(Protocol, UnicodeEscapesDecodeToUtf8) {
  WireRequest request;
  ASSERT_TRUE(parse_request("{\"op\": \"reset_session\", \"id\": 1,"
                            " \"user\": \"Ren\\u00e9e\"}",
                            &request)
                  .ok());
  EXPECT_EQ(request.user, "Ren\xc3\xa9\x65");  // René + e, é as UTF-8

  ASSERT_TRUE(parse_request("{\"op\": \"reset_session\", \"id\": 2,"
                            " \"user\": \"\\ud83d\\ude00\"}",  // U+1F600
                            &request)
                  .ok());
  EXPECT_EQ(request.user, "\xf0\x9f\x98\x80");

  // Distinct escaped users stay distinct.
  WireRequest other;
  ASSERT_TRUE(parse_request("{\"op\": \"reset_session\", \"id\": 3,"
                            " \"user\": \"\\u4e16\"}",
                            &other)
                  .ok());
  EXPECT_NE(other.user, request.user);

  // Raw UTF-8 written by our serializer survives a round-trip.
  WireRequest original;
  original.op = Op::kResetSession;
  original.id = 4;
  original.user = "\xc3\xa9\xe4\xb8\x96\xf0\x9f\x98\x80";
  WireRequest back;
  ASSERT_TRUE(parse_request(serialize_request(original), &back).ok());
  EXPECT_EQ(back.user, original.user);

  // Unpaired surrogates are malformed, not silently substituted.
  const char* bad[] = {
      "{\"op\": \"hello\", \"id\": 1, \"user\": \"\\ud83d\"}",
      "{\"op\": \"hello\", \"id\": 1, \"user\": \"\\ud83dx\"}",
      "{\"op\": \"hello\", \"id\": 1, \"user\": \"\\ud83d\\u0041\"}",
      "{\"op\": \"hello\", \"id\": 1, \"user\": \"\\ude00\"}",
  };
  for (const char* line : bad) {
    EXPECT_EQ(parse_request(line, &request).code(),
              Status::Code::kInvalidArgument)
        << line;
  }
}

TEST(Protocol, MakeAuditResponseMapsStatusAndFindings) {
  AuditResponse ok_response;
  ok_response.status = Status::Ok();
  ok_response.answer = true;
  ok_response.disclosure.verdict = Verdict::kSafe;
  ok_response.disclosure.method = "theorem-3.11";
  ok_response.disclosure.certified = true;
  ok_response.cumulative.verdict = Verdict::kUnsafe;
  ok_response.cumulative.method = "box-necessary";
  ok_response.disclosure_cached = true;
  ok_response.sequence = 2;
  const WireResponse wire = make_audit_response(5, ok_response);
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.id, 5u);
  EXPECT_EQ(wire.verdict, "safe");
  EXPECT_EQ(wire.method, "theorem-3.11");
  EXPECT_TRUE(wire.cached);
  EXPECT_EQ(wire.cumulative_verdict, "unsafe");
  EXPECT_EQ(wire.sequence, 2u);

  AuditResponse failed;
  failed.status = Status::ResourceExhausted("queue full");
  const WireResponse rejected = make_audit_response(6, failed);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, "resource_exhausted");
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  AuditResponse denied;
  denied.denied = true;
  const WireResponse denial = make_audit_response(7, denied);
  EXPECT_TRUE(denial.ok);
  EXPECT_TRUE(denial.denied);
  EXPECT_TRUE(denial.verdict.empty());
}

TEST(Protocol, StatusCodeSlugsAreStable) {
  EXPECT_EQ(status_code_slug(Status::Code::kOk), "ok");
  EXPECT_EQ(status_code_slug(Status::Code::kInvalidArgument),
            "invalid_argument");
  EXPECT_EQ(status_code_slug(Status::Code::kResourceExhausted),
            "resource_exhausted");
  EXPECT_EQ(status_code_slug(Status::Code::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(status_code_slug(Status::Code::kCancelled), "cancelled");
  EXPECT_EQ(status_code_slug(Status::Code::kUnavailable), "unavailable");
}

}  // namespace
}  // namespace service
}  // namespace epi
