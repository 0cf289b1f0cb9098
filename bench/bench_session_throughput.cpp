// Session-evaluation throughput: the engine-level measurement behind the
// incremental serving path (engine/incremental.h). A streaming session is a
// monotonically shrinking accumulated set S1 ⊇ S2 ⊇ ... (Section 3.3:
// acquiring B1 then B2 equals acquiring B1 ∩ B2); the service decides
// Safe(A, Sk) after every disclosure. This bench replays the same shrinking
// sessions through both cumulative-verdict strategies:
//
//   recompute    — per step, a lookup of S in a per-round verdict memo
//                  and, on a miss, DecisionEngine::decide() and an insert
//                  (every step hashes S; only a repeated S skips the
//                  cascade);
//   incremental  — DecisionEngine::decide_incremental() with one persistent
//                  IncrementalContext per session, so a step costs O(change):
//                  pinned monotone verdicts and unchanged-S repeats are O(1),
//                  and the subcube stage delta-updates its Δ-class counters
//                  over just the removed worlds.
//
// Scenarios: `subcube` (kSubcubeKnowledge, prepared Δ-class machinery — the
// Section 4.1 cascade where recompute rescans A ∩ S every step) and
// `unrestricted` (Theorem 3.11, with a mid-session disclosure that empties
// A ∩ S so the monotone Safe verdict pins). Both axes are asserted
// byte-identical per step before any timing runs — the bench doubles as a
// differential check of the incremental contract.
//
// Reported per (scenario, session length): verdicts/sec on both axes, plus
// the steady-state k-th-verdict cost (first step excluded — it pays the
// one-time per-session state construction) and its speedup. Each axis
// replays the identical sessions for several rounds and reports its best
// round (fold_round) so the gated ratios stay stable across machine noise.
// The headline acceptance number is `speedup_kth` on the subcube
// length-128 row.
//
// `--json` emits the shared bench_json.h schema; BENCH_session.json at the
// repo root is the checked-in baseline the CI perf gate diffs
// (tools/bench_compare.py).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_json.h"
#include "core/auditor.h"
#include "db/parser.h"
#include "db/record.h"
#include "engine/decision_engine.h"
#include "engine/incremental.h"
#include "util/rng.h"
#include "workloads/family.h"
#include "worlds/world_set.h"

using namespace epi;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// One pre-generated session: the accumulated set after each disclosure and
/// whether that step actually shrank it (Session::absorb marks the state
/// dirty only on a real shrink, so the bench mirrors that).
struct SessionTrace {
  std::vector<WorldSet> s;
  std::vector<char> changed;
};

/// Shrinks S by a small random slice most steps (each answered query rules
/// out a handful of worlds — the streaming regime the incremental path
/// targets); one step in four repeats already-known information (no change —
/// the service's "unchanged" tier). `kill` forces S ∩ kill at `kill_step`,
/// which the unrestricted scenario uses to empty A ∩ S mid-session.
SessionTrace make_session(unsigned n, double keep_density, unsigned length,
                          Rng& rng, const WorldSet* kill, unsigned kill_step,
                          const WorldSet* protect) {
  SessionTrace out;
  out.s.reserve(length);
  out.changed.reserve(length);
  WorldSet acc = WorldSet::universe(n);
  for (unsigned k = 0; k < length; ++k) {
    const WorldSet prev = acc;
    if (kill != nullptr && k == kill_step) {
      acc &= *kill;
    } else if (rng.next_below(4) != 0) {
      WorldSet disclosed = WorldSet::random(n, rng, keep_density);
      if (protect != nullptr) disclosed |= *protect;
      acc &= disclosed;
    }
    out.changed.push_back(acc != prev ? 1 : 0);
    out.s.push_back(acc);
  }
  return out;
}

struct Scenario {
  const char* name = "";
  unsigned n = 0;
  /// Per-world survival probability of each shrinking disclosure.
  double keep_density = 0.999;
  std::unique_ptr<Auditor> auditor;
  WorldSet a = WorldSet::empty(1);  // replaced by the real audit set below
  /// Non-null for the subcube prior: installed into every context so the
  /// prepared Δ-class machinery is live, as in the audit service.
  std::shared_ptr<IntervalOracle> oracle;
  /// Unrestricted only: a mid-session disclosure emptying A ∩ S.
  std::unique_ptr<WorldSet> kill;
  /// Subcube only: worlds every disclosure leaves in S, so the session
  /// stays in the Safe steady state (see make_subcube_scenario).
  std::unique_ptr<WorldSet> protect;
};

// ~50-world audit set over 4096 worlds, disclosures removing a handful of
// worlds each and leaving the fragile Δ-classes (two worlds or fewer)
// intact, so every cumulative verdict stays Safe. That is the long-lived
// compliant session — the steady state a serving deployment spends its time
// in — and the asymmetric regime: recompute must re-prove safety by
// rescanning every active w1's Δ-classes per step (Cor. 4.12, no early
// exit), while the incremental index only debits the removed worlds'
// counters.
Scenario make_subcube_scenario() {
  Scenario sc;
  sc.name = "subcube";
  sc.n = 12;
  sc.keep_density = 0.999;
  RecordUniverse u;
  for (unsigned i = 0; i < sc.n; ++i) u.add("r" + std::to_string(i));
  sc.auditor =
      std::make_unique<Auditor>(u, PriorAssumption::kSubcubeKnowledge);
  Rng rng(0x5E55'0901);
  sc.a = WorldSet::random(sc.n, rng, 0.012);
  sc.oracle = sc.auditor->shared_subcube_oracle();
  AuditContext ctx;
  ctx.set_interval_oracle(sc.oracle);
  ctx.prepare_subcube(sc.a);
  const auto& prep = ctx.prepared_for(sc.a);
  WorldSet prot = WorldSet::empty(sc.n);
  to_finite(sc.a).visit([&](std::size_t w1) {
    const auto [first, last] = prep->class_range(w1);
    for (std::uint32_t c = first; c < last; ++c) {
      const auto cls = prep->class_worlds(c);
      if (cls.size() <= 2) {
        for (const std::uint32_t e : cls) prot.insert(static_cast<World>(e));
      }
    }
  });
  sc.protect = std::make_unique<WorldSet>(std::move(prot));
  return sc;
}

Scenario make_unrestricted_scenario() {
  Scenario sc;
  sc.name = "unrestricted";
  sc.n = 14;
  sc.keep_density = 0.99;
  RecordUniverse u;
  for (unsigned i = 0; i < sc.n; ++i) u.add("r" + std::to_string(i));
  sc.auditor = std::make_unique<Auditor>(u, PriorAssumption::kUnrestricted);
  Rng rng(0x5E55'0902);
  sc.a = WorldSet::random(sc.n, rng, 0.5);
  sc.kill = std::make_unique<WorldSet>(~sc.a);
  return sc;
}

/// Fresh worker-style context: stage counters wired, subcube machinery
/// prepared for A when the scenario has it. Setup runs outside every timed
/// region on both axes — the service amortizes it across a worker lifetime.
void setup_context(AuditContext& ctx, const Scenario& sc) {
  ctx.reset_stages(sc.auditor->engine().stage_names());
  if (sc.oracle) {
    ctx.set_interval_oracle(sc.oracle);
    ctx.prepare_subcube(sc.a);
  }
}

bool same_decision(const EngineDecision& x, const EngineDecision& y) {
  return x.verdict == y.verdict && x.method == y.method &&
         x.certified == y.certified && x.numeric_gap == y.numeric_gap &&
         x.detail == y.detail;
}

/// Both axes over every session step, compared field-for-field. The
/// incremental contract is byte-identity with decide(); a mismatch is a
/// correctness bug, not a perf result.
bool verify_identical(const Scenario& sc,
                      const std::vector<SessionTrace>& sessions) {
  const DecisionEngine& engine = sc.auditor->engine();
  AuditContext full_ctx;
  AuditContext inc_ctx;
  setup_context(full_ctx, sc);
  setup_context(inc_ctx, sc);
  for (std::size_t si = 0; si < sessions.size(); ++si) {
    const SessionTrace& sess = sessions[si];
    IncrementalContext inc;
    for (std::size_t k = 0; k < sess.s.size(); ++k) {
      if (k == 0 || sess.changed[k]) inc.dirty = true;
      const EngineDecision want = engine.decide(sc.a, sess.s[k], full_ctx);
      const EngineDecision got =
          engine.decide_incremental(sc.a, sess.s[k], inc, inc_ctx);
      if (!same_decision(want, got)) {
        std::fprintf(stderr,
                     "FAIL %s: session %zu step %zu: incremental diverged "
                     "(%s/%s vs %s/%s)\n",
                     sc.name, si, k, to_string(got.verdict).c_str(),
                     got.method.c_str(), to_string(want.verdict).c_str(),
                     want.method.c_str());
        return false;
      }
    }
  }
  return true;
}

struct AxisTiming {
  double total_ns = 0;
  double rest_ns = 0;  ///< steps 2..L only: the steady-state k-th verdict
  std::size_t steps = 0;
  std::size_t rest_steps = 0;

  double per_sec() const { return steps / (total_ns * 1e-9); }
  double kth_ns() const { return rest_ns / static_cast<double>(rest_steps); }

  /// Every round replays the identical session set, so the fastest round is
  /// the least-interference estimate of the true cost — folding min instead
  /// of summing keeps the perf-gate comparison stable across machine noise.
  void fold_round(double round_total_ns, double round_rest_ns,
                  std::size_t round_steps, std::size_t round_rest_steps) {
    if (steps == 0 || round_total_ns < total_ns) total_ns = round_total_ns;
    if (steps == 0 || round_rest_ns < rest_ns) rest_ns = round_rest_ns;
    steps = round_steps;
    rest_steps = round_rest_steps;
  }
};

AxisTiming run_recompute(const Scenario& sc,
                         const std::vector<SessionTrace>& sessions,
                         unsigned rounds) {
  const DecisionEngine& engine = sc.auditor->engine();
  AxisTiming t;
  for (unsigned r = 0; r < rounds; ++r) {
    AuditContext ctx;
    setup_context(ctx, sc);
    // Fresh memo per round: it must not carry answers from a previous
    // replay of the very same sessions. A round holds at most 16 x 128
    // distinct S, fewer than a service memo's default 4096 entries, so a
    // bounded memo would evict nothing here.
    std::unordered_map<WorldSet, EngineDecision, WorldSetHash> memo;
    auto decide = [&](const WorldSet& s) {
      const auto hit = memo.find(s);
      if (hit != memo.end()) return hit->second;
      return memo.emplace(s, engine.decide(sc.a, s, ctx)).first->second;
    };
    double round_total = 0, round_rest = 0;
    std::size_t round_steps = 0, round_rest_steps = 0;
    for (const SessionTrace& sess : sessions) {
      const auto t0 = Clock::now();
      EngineDecision d = decide(sess.s[0]);
      const auto t1 = Clock::now();
      for (std::size_t k = 1; k < sess.s.size(); ++k) {
        d = decide(sess.s[k]);
      }
      const auto t2 = Clock::now();
      (void)d;
      round_total += ns_between(t0, t2);
      round_rest += ns_between(t1, t2);
      round_steps += sess.s.size();
      round_rest_steps += sess.s.size() - 1;
    }
    t.fold_round(round_total, round_rest, round_steps, round_rest_steps);
  }
  return t;
}

AxisTiming run_incremental(const Scenario& sc,
                           const std::vector<SessionTrace>& sessions,
                           unsigned rounds) {
  const DecisionEngine& engine = sc.auditor->engine();
  AxisTiming t;
  for (unsigned r = 0; r < rounds; ++r) {
    AuditContext ctx;
    setup_context(ctx, sc);
    double round_total = 0, round_rest = 0;
    std::size_t round_steps = 0, round_rest_steps = 0;
    for (const SessionTrace& sess : sessions) {
      IncrementalContext inc;  // per-session state, as Session holds it
      const auto t0 = Clock::now();
      inc.dirty = true;
      EngineDecision d = engine.decide_incremental(sc.a, sess.s[0], inc, ctx);
      const auto t1 = Clock::now();
      for (std::size_t k = 1; k < sess.s.size(); ++k) {
        if (sess.changed[k]) inc.dirty = true;
        d = engine.decide_incremental(sc.a, sess.s[k], inc, ctx);
      }
      const auto t2 = Clock::now();
      (void)d;
      round_total += ns_between(t0, t2);
      round_rest += ns_between(t1, t2);
      round_steps += sess.s.size();
      round_rest_steps += sess.s.size() - 1;
    }
    t.fold_round(round_total, round_rest, round_steps, round_rest_steps);
  }
  return t;
}

struct Result {
  const char* scenario;
  unsigned length;
  AxisTiming recompute;
  AxisTiming incremental;
};

constexpr unsigned kSessionsPerLength = 16;
constexpr unsigned kTargetSteps = 8192;  ///< per axis, before the round cap

unsigned rounds_for(unsigned length) {
  const unsigned per_round = kSessionsPerLength * length;
  unsigned rounds = kTargetSteps / per_round;
  if (rounds < 1) rounds = 1;
  if (rounds > 8) rounds = 8;
  return rounds;
}

// --- Workload-family axis ---------------------------------------------------
// The synthetic sweep above controls the shrink rate; this axis replays the
// registry families' actual per-user streams (src/workloads/) through the
// same two strategies, so the session numbers cover the query mixes the
// parity check and the serving tier see. Each family stream becomes one
// SessionTrace per user (Prop. 3.10 running intersections), audited against
// the family's first sensitive property under the family's own prior.

struct FamilyResult {
  const char* family;
  std::string prior;
  unsigned records = 0;
  std::size_t sessions = 0;
  std::size_t steps = 0;
  AxisTiming recompute;
  AxisTiming incremental;
};

bool run_family_axis(std::vector<FamilyResult>* out) {
  const struct {
    const char* name;
    unsigned records, requests, users;
  } points[] = {
      {"hospital", 8, 192, 3},  {"aggregate", 8, 192, 3},
      {"policy", 10, 160, 2},   {"collusion", 10, 120, 3},
      {"rectangles", 12, 120, 2},
  };
  for (const auto& point : points) {
    const workloads::WorkloadFamily* family = workloads::find_family(point.name);
    workloads::FamilyOptions options;
    options.seed = 0x5E55'0F00;
    options.records = point.records;
    options.requests = point.requests;
    options.users = point.users;
    workloads::GeneratedWorkload generated;
    if (family == nullptr || !family->generate(options, &generated).ok()) {
      std::fprintf(stderr, "family generation failed: %s\n", point.name);
      return false;
    }

    Scenario sc;
    sc.name = point.name;
    sc.n = generated.universe.size();
    sc.auditor = std::make_unique<Auditor>(generated.universe, generated.prior);
    sc.a = parse_query(generated.audit_queries.front())
               ->compile(generated.universe);
    if (generated.prior == PriorAssumption::kSubcubeKnowledge) {
      sc.oracle = sc.auditor->shared_subcube_oracle();
    }

    // One session per user: the running intersection after each of that
    // user's disclosures, with the same changed/unchanged marks Session
    // tracks.
    std::vector<SessionTrace> sessions;
    std::vector<std::string> users;
    for (const workloads::StreamRequest& request : generated.stream) {
      std::size_t index = 0;
      while (index < users.size() && users[index] != request.user) ++index;
      if (index == users.size()) {
        users.push_back(request.user);
        sessions.emplace_back();
      }
      SessionTrace& trace = sessions[index];
      const WorldSet satisfying =
          parse_query(request.query_text)->compile(generated.universe);
      WorldSet acc =
          trace.s.empty() ? WorldSet::universe(sc.n) : trace.s.back();
      const WorldSet prev = acc;
      acc &= request.answer ? satisfying : ~satisfying;
      trace.changed.push_back(acc != prev ? 1 : 0);
      trace.s.push_back(std::move(acc));
    }

    if (!verify_identical(sc, sessions)) return false;
    FamilyResult res;
    res.family = point.name;
    res.prior = to_string(generated.prior);
    res.records = sc.n;
    res.sessions = sessions.size();
    for (const SessionTrace& trace : sessions) res.steps += trace.s.size();
    res.recompute = run_recompute(sc, sessions, 4);
    res.incremental = run_incremental(sc, sessions, 4);
    out->push_back(std::move(res));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const unsigned lengths[] = {8, 32, 128};
  std::vector<Scenario> scenarios;
  scenarios.push_back(make_subcube_scenario());
  scenarios.push_back(make_unrestricted_scenario());

  std::vector<Result> results;
  for (const Scenario& sc : scenarios) {
    for (unsigned length : lengths) {
      Rng rng(0x5E55'0000 + length);
      std::vector<SessionTrace> sessions;
      sessions.reserve(kSessionsPerLength);
      for (unsigned i = 0; i < kSessionsPerLength; ++i) {
        // The kill disclosure lands at a different early step per session so
        // the pin point varies; sessions without one never pin via kSafe.
        const unsigned kill_step = 1 + (i % 8) % length;
        sessions.push_back(make_session(sc.n, sc.keep_density, length, rng,
                                        sc.kill.get(), kill_step,
                                        sc.protect.get()));
      }
      if (!verify_identical(sc, sessions)) return 1;
      const unsigned rounds = rounds_for(length);
      Result res{sc.name, length, run_recompute(sc, sessions, rounds),
                 run_incremental(sc, sessions, rounds)};
      results.push_back(std::move(res));
    }
  }

  std::vector<FamilyResult> family_results;
  if (!run_family_axis(&family_results)) return 1;

  if (json) {
    bench::JsonReport report("bench_session_throughput");
    for (const Result& r : results) {
      report.row("session")
          .field("scenario", r.scenario)
          .field("length", r.length)
          .field("recompute_per_sec", r.recompute.per_sec(), 0)
          .field("incremental_per_sec", r.incremental.per_sec(), 0)
          .field("speedup", r.incremental.per_sec() / r.recompute.per_sec())
          .field("recompute_kth_ns", r.recompute.kth_ns(), 1)
          .field("incremental_kth_ns", r.incremental.kth_ns(), 1)
          .field("speedup_kth",
                 r.recompute.kth_ns() / r.incremental.kth_ns());
    }
    for (const FamilyResult& r : family_results) {
      report.row("session_families")
          .field("family", r.family)
          .field("prior", r.prior)
          .field("records", r.records)
          .field("sessions", r.sessions)
          .field("steps", r.steps)
          .field("recompute_per_sec", r.recompute.per_sec(), 0)
          .field("incremental_per_sec", r.incremental.per_sec(), 0)
          .field("speedup", r.incremental.per_sec() / r.recompute.per_sec())
          .field("recompute_kth_ns", r.recompute.kth_ns(), 1)
          .field("incremental_kth_ns", r.incremental.kth_ns(), 1)
          .field("speedup_kth",
                 r.recompute.kth_ns() / r.incremental.kth_ns());
    }
    report.print();
    return 0;
  }

  std::printf(
      "== cumulative-verdict throughput: incremental vs recompute ==\n");
  std::printf("%-13s %5s  %13s %13s %8s  %12s %12s %8s\n", "scenario", "len",
              "recompute/s", "incremental/s", "speedup", "kth rec ns",
              "kth inc ns", "kth spd");
  for (const Result& r : results) {
    std::printf("%-13s %5u  %13.0f %13.0f %7.1fx  %12.1f %12.1f %7.1fx\n",
                r.scenario, r.length, r.recompute.per_sec(),
                r.incremental.per_sec(),
                r.incremental.per_sec() / r.recompute.per_sec(),
                r.recompute.kth_ns(), r.incremental.kth_ns(),
                r.recompute.kth_ns() / r.incremental.kth_ns());
  }
  std::printf(
      "\n== workload families: registry streams, one session per user ==\n");
  std::printf("%-13s %18s %5s %6s  %13s %13s %8s\n", "family", "prior",
              "sess", "steps", "recompute/s", "incremental/s", "kth spd");
  for (const FamilyResult& r : family_results) {
    std::printf("%-13s %18s %5zu %6zu  %13.0f %13.0f %7.1fx\n", r.family,
                r.prior.c_str(), r.sessions, r.steps, r.recompute.per_sec(),
                r.incremental.per_sec(),
                r.recompute.kth_ns() / r.incremental.kth_ns());
  }

  std::printf(
      "\nkth = steady-state per-verdict cost, first step of each session\n"
      "excluded (it pays one-time per-session state construction).\n"
      "Both axes verified byte-identical per step before timing.\n");
  return 0;
}
