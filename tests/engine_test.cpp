// Tests for the DecisionEngine subsystem: stage-cascade parity with a golden
// frozen from the pre-engine decision paths, batch-audit determinism across
// thread counts, the batch's per-key compile cache and per-set dedupe, custom
// stage registration and the thread pool itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/audit_log.h"
#include "core/auditor.h"
#include "core/report.h"
#include "core/workload.h"
#include "db/parser.h"
#include "engine/decision_engine.h"
#include "engine/stages.h"
#include "engine/thread_pool.h"
#include "possibilistic/subcubes.h"
#include "util/rng.h"
#include "worlds/finite_set.h"

namespace epi {
namespace {

std::vector<std::pair<WorldSet, WorldSet>> parity_pairs(unsigned n) {
  Rng rng(0x5EED5);
  std::vector<std::pair<WorldSet, WorldSet>> pairs;
  for (int i = 0; i < 25; ++i) {
    pairs.emplace_back(WorldSet::random(n, rng), WorldSet::random(n, rng));
  }
  const WorldSet a = WorldSet::random(n, rng);
  pairs.emplace_back(a, a);                        // B = A
  pairs.emplace_back(a, ~a);                       // B disjoint from A
  pairs.emplace_back(a, WorldSet::universe(n));    // vacuous disclosure
  pairs.emplace_back(a, WorldSet::empty(n));       // contradictory disclosure
  pairs.emplace_back(WorldSet::empty(n), a);       // A never holds
  pairs.emplace_back(WorldSet::universe(n), a);    // A always holds
  return pairs;
}

/// One line of tests/golden/engine/legacy_decisions_n3.tsv: what the
/// pre-engine decision paths answered for one (prior, A, B).
struct LegacyDecision {
  std::string prior, a, b, verdict, method;
  bool certified = false;
  double numeric_gap = 0.0;
  std::string detail;
};

std::vector<LegacyDecision> read_legacy_golden() {
  std::ifstream in(EPI_GOLDEN_DIR "/engine/legacy_decisions_n3.tsv");
  std::vector<LegacyDecision> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::size_t start = 0;
    for (std::size_t tab; (tab = line.find('\t', start)) != std::string::npos;
         start = tab + 1) {
      f.push_back(line.substr(start, tab - start));
    }
    f.push_back(line.substr(start));
    if (f.size() == 7) f.emplace_back();  // Safe rows have no detail
    if (f.size() != 8) {
      ADD_FAILURE() << "malformed golden line: " << line;
      continue;
    }
    rows.push_back({f[0], f[1], f[2], f[3], f[4], f[5] == "1",
                    std::strtod(f[6].c_str(), nullptr), f[7]});
  }
  return rows;
}

// The engine against a golden frozen from the decision paths it replaced
// (unrestricted, product and log-supermodular priors), field by field; the
// subcube prior against the live Section 4.1 interval scan.
TEST(DecisionEngine, MatchesLegacyDecisionPaths) {
  const unsigned n = 3;
  AuditorOptions options;
  options.ascent.multistarts = 8;
  options.ascent.max_cycles = 60;
  const std::vector<std::pair<WorldSet, WorldSet>> pairs = parity_pairs(n);

  const std::vector<LegacyDecision> golden = read_legacy_golden();
  ASSERT_EQ(golden.size(), 3 * pairs.size())
      << "golden/engine/legacy_decisions_n3.tsv is missing or incomplete";
  std::size_t row = 0;
  for (PriorAssumption prior :
       {PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
        PriorAssumption::kLogSupermodular}) {
    const DecisionEngine engine(n, prior, options);
    for (const auto& [a, b] : pairs) {
      const LegacyDecision& want = golden[row++];
      ASSERT_EQ(want.prior, to_string(prior));
      ASSERT_EQ(want.a, a.to_string());
      ASSERT_EQ(want.b, b.to_string());
      AuditContext ctx;
      const EngineDecision got = engine.decide(a, b, ctx);
      const std::string label = want.prior + " A=" + want.a + " B=" + want.b;
      EXPECT_EQ(to_string(got.verdict), want.verdict) << label;
      EXPECT_EQ(got.method, want.method) << label;
      EXPECT_EQ(got.certified, want.certified) << label;
      EXPECT_EQ(got.detail, want.detail) << label;
      EXPECT_NEAR(got.numeric_gap, want.numeric_gap, 1e-12) << label;
    }
  }

  auto family = std::make_shared<SubcubeSigma>(n);
  auto oracle = std::make_shared<IntervalOracle>(
      family, FiniteSet::universe(family->universe_size()));
  const DecisionEngine engine(n, PriorAssumption::kSubcubeKnowledge, options);
  for (const auto& [a, b] : pairs) {
    AuditContext ctx;
    ctx.set_interval_oracle(oracle);
    const EngineDecision got = engine.decide(a, b, ctx);
    const bool safe = oracle->safe_minimal_intervals(to_finite(a), to_finite(b));
    const std::string label = "A=" + a.to_string() + " B=" + b.to_string();
    EXPECT_EQ(got.verdict, safe ? Verdict::kSafe : Verdict::kUnsafe) << label;
    EXPECT_EQ(got.method, "subcube-intervals") << label;
    EXPECT_TRUE(got.certified) << label;
    EXPECT_EQ(got.detail,
              safe ? "" : "a user knowing some records' exact contents learns A")
        << label;
    EXPECT_EQ(got.numeric_gap, 0.0) << label;
  }
}

// One AuditContext shared by the engines of two priors: each prior gets the
// decision a fresh context gives it, in either order. Safe(A, B) depends on
// the prior, so anything a context remembered from one engine and served to
// the other would be wrong here: theorem-3.11 for the product prior on
// B = {00,11}, and a false `safe miklau-suciu` for the unrestricted prior on
// B = {01,11}.
TEST(DecisionEngine, SharedContextDecidesEachPriorAfresh) {
  const unsigned n = 2;
  auto worlds = [&](std::initializer_list<const char*> bits) {
    WorldSet s = WorldSet::empty(n);
    for (const char* w : bits) s.insert(world_from_string(w));
    return s;
  };
  const WorldSet a = worlds({"10", "11"});
  const DecisionEngine unrestricted(n, PriorAssumption::kUnrestricted);
  const DecisionEngine product(n, PriorAssumption::kProduct);
  for (const WorldSet& b : {worlds({"00", "11"}), worlds({"01", "11"})}) {
    for (bool product_first : {false, true}) {
      const DecisionEngine* first = product_first ? &product : &unrestricted;
      const DecisionEngine* second = product_first ? &unrestricted : &product;
      AuditContext shared;
      for (const DecisionEngine* engine : {first, second}) {
        AuditContext fresh;
        const EngineDecision want = engine->decide(a, b, fresh);
        const EngineDecision got = engine->decide(a, b, shared);
        const std::string label = to_string(engine->prior()) + " B=" +
                                  b.to_string() +
                                  (product_first ? " product first"
                                                 : " unrestricted first");
        EXPECT_EQ(to_string(got.verdict), to_string(want.verdict)) << label;
        EXPECT_EQ(got.method, want.method) << label;
        EXPECT_EQ(got.certified, want.certified) << label;
        EXPECT_EQ(got.detail, want.detail) << label;
      }
    }
  }
}

// decide_incremental must be byte-identical to decide() at every step of a
// shrinking session, across all three serve tiers: fresh evaluation, the
// unchanged-S replay (dirty false), and the pinned monotone verdict once
// A cap S empties.
TEST(DecisionEngine, IncrementalMatchesDecideOnShrinkingSessions) {
  const unsigned n = 4;
  AuditorOptions options;
  options.ascent.multistarts = 8;
  options.ascent.max_cycles = 60;
  auto family = std::make_shared<SubcubeSigma>(n);
  auto oracle = std::make_shared<IntervalOracle>(
      family, FiniteSet::universe(family->universe_size()));
  Rng rng(0x1DE17A);

  for (PriorAssumption prior :
       {PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
        PriorAssumption::kSubcubeKnowledge}) {
    const DecisionEngine engine(n, prior, options);
    for (int session = 0; session < 8; ++session) {
      const WorldSet a = WorldSet::random(n, rng);
      AuditContext full_ctx;
      AuditContext inc_ctx;
      if (prior == PriorAssumption::kSubcubeKnowledge) {
        for (AuditContext* ctx : {&full_ctx, &inc_ctx}) {
          ctx->set_interval_oracle(oracle);
          ctx->prepare_subcube(a);  // both prepared: same deciding method
        }
      }
      IncrementalContext inc;
      WorldSet s = WorldSet::universe(n);
      const unsigned kill_step = 4 + rng.next_below(6);
      for (unsigned step = 0; step < 12; ++step) {
        const WorldSet prev = s;
        if (step == kill_step) {
          s &= ~a;  // empty A cap S: the monotone Safe verdict pins
        } else if (rng.next_below(4) != 0) {
          s &= WorldSet::random(n, rng, 0.8);
        }
        // Session::absorb marks the state dirty only on a real shrink.
        if (step == 0 || s != prev) inc.dirty = true;
        const EngineDecision want = engine.decide(a, s, full_ctx);
        const EngineDecision got = engine.decide_incremental(a, s, inc, inc_ctx);
        const std::string label = to_string(prior) + " session " +
                                  std::to_string(session) + " step " +
                                  std::to_string(step);
        EXPECT_EQ(got.verdict, want.verdict) << label;
        EXPECT_EQ(got.method, want.method) << label;
        EXPECT_EQ(got.certified, want.certified) << label;
        EXPECT_EQ(got.detail, want.detail) << label;
        EXPECT_NEAR(got.numeric_gap, want.numeric_gap, 1e-12) << label;
      }
      // Every step was served by exactly one tier.
      EXPECT_EQ(inc.evaluations + inc.served_unchanged + inc.served_pinned,
                12u);
      // The kill step pins Safe for the unrestricted and subcube cascades,
      // whose first stage carries the monotone flag. The product cascade is
      // built from legacy table criteria that never report monotone, so it
      // re-evaluates (still byte-identically) instead of pinning.
      if (prior != PriorAssumption::kProduct) {
        EXPECT_GT(inc.served_pinned, 0u);
      } else {
        EXPECT_EQ(inc.served_pinned, 0u);
      }
    }
  }
}

// The unchanged tier serves the recorded decision without rerunning the
// cascade: stage invocation counters must not move.
TEST(DecisionEngine, IncrementalUnchangedServesWithoutCascade) {
  const unsigned n = 3;
  const DecisionEngine engine(n, PriorAssumption::kUnrestricted, {});
  Rng rng(0xCAFE);
  const WorldSet a = WorldSet::random(n, rng);
  const WorldSet s = WorldSet::random(n, rng, 0.8);
  AuditContext ctx;
  ctx.reset_stages(engine.stage_names());
  IncrementalContext inc;
  inc.dirty = true;
  const EngineDecision first = engine.decide_incremental(a, s, inc, ctx);
  const std::size_t invocations_after_first =
      ctx.stage_stats().front().invocations;
  const EngineDecision again = engine.decide_incremental(a, s, inc, ctx);
  EXPECT_EQ(first.verdict, again.verdict);
  EXPECT_EQ(first.method, again.method);
  EXPECT_EQ(inc.served_unchanged, 1u);
  EXPECT_EQ(ctx.stage_stats().front().invocations, invocations_after_first);
}

TEST(DecisionEngine, ReportsIdenticalAcrossThreadCounts) {
  WorkloadOptions wl;
  wl.patients = 5;
  wl.queries = 40;
  wl.seed = 0xD15C;
  const Workload workload = make_hospital_workload(wl);

  std::string reference_report;
  std::vector<StageStats> reference_stats;
  std::size_t reference_memo_hits = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    AuditorOptions options;
    options.enable_sos = false;
    options.ascent.multistarts = 8;
    options.threads = threads;
    Auditor auditor(workload.universe, PriorAssumption::kProduct, options);
    const AuditReport report = auditor.audit(workload.log, "p0_cond");
    const std::string text = format_report(report);
    const std::vector<StageStats> stats = report.stage_stats();
    if (threads == 1) {
      reference_report = text;
      reference_stats = stats;
      reference_memo_hits = report.memo_hits();
      continue;
    }
    EXPECT_EQ(text, reference_report) << threads << " threads";
    EXPECT_EQ(report.memo_hits(), reference_memo_hits) << threads << " threads";
    ASSERT_EQ(stats.size(), reference_stats.size());
    for (std::size_t i = 0; i < reference_stats.size(); ++i) {
      EXPECT_EQ(stats[i].name, reference_stats[i].name);
      EXPECT_EQ(stats[i].invocations, reference_stats[i].invocations)
          << threads << " threads, stage " << reference_stats[i].name;
      EXPECT_EQ(stats[i].decisions, reference_stats[i].decisions)
          << threads << " threads, stage " << reference_stats[i].name;
    }
  }
}

TEST(Auditor, CompilesEachDistinctDisclosureOncePerAudit) {
  RecordUniverse u;
  u.add("x");
  u.add("y");
  AuditLog log;
  // Three users receive the same (query, answer) pair; one extra distinct one.
  log.record_with_answer("u1", "x", true);
  log.record_with_answer("u2", "x", true);
  log.record_with_answer("u3", "x", true);
  log.record_with_answer("u1", "y", false);

  Auditor auditor(u, PriorAssumption::kUnrestricted);
  reset_parse_query_call_count();
  reset_disclosed_set_call_count();
  const AuditReport report = auditor.audit(log, "x");

  // One parse for the audit query; the log's queries were parsed at record
  // time and must not be re-parsed by the audit.
  EXPECT_EQ(parse_query_call_count(), 1u);
  // Two distinct (text, answer) pairs -> exactly two compilations, although
  // four disclosures and two per-user conjunctions consumed the sets.
  EXPECT_EQ(disclosed_set_call_count(), 2u);
  ASSERT_EQ(report.per_disclosure.size(), 4u);
  // u2's and u3's conjunctions both equal the "x"-true disclosure's set, so
  // the batch decides it once: four lookups (two keys, two distinct
  // conjunctions) over three distinct sets, one memo hit.
  EXPECT_EQ(report.metrics.counter("engine.memo.lookups"), 4);
  EXPECT_EQ(report.memo_hits(), 1u);
}

// `x` answered no and `!x` answered yes are two keys compiled to one set, and
// both users' conjunctions are that set too. The batch decides it once, as it
// would a log with only one of the two keys, at every thread count.
TEST(Auditor, DecidesKeysThatCompileToOneSetOnce) {
  RecordUniverse u;
  u.add("x");
  u.add("y");
  AuditLog two_keys;
  two_keys.record_with_answer("u1", "x", false);
  two_keys.record_with_answer("u2", "!x", true);
  AuditLog one_key;
  one_key.record_with_answer("u1", "x", false);
  one_key.record_with_answer("u2", "x", false);

  std::string reference_report;
  std::vector<StageStats> reference_stats;
  for (unsigned threads : {1u, 4u}) {
    AuditorOptions options;
    options.threads = threads;
    const Auditor auditor(u, PriorAssumption::kProduct, options);
    const AuditReport report = auditor.audit(two_keys, "y");
    const std::vector<StageStats> stats = report.stage_stats();

    std::size_t decisions = 0;
    for (const StageStats& s : stats) decisions += s.decisions;
    EXPECT_EQ(decisions, 1u) << "the cascade runs once";
    // Two keys and one distinct conjunction; all three are one set.
    EXPECT_EQ(report.metrics.counter("engine.memo.lookups"), 3);
    EXPECT_EQ(report.metrics.counter("engine.memo.hits"), 2);

    const std::vector<StageStats> one_key_stats =
        auditor.audit(one_key, "y").stage_stats();
    ASSERT_EQ(stats.size(), one_key_stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].invocations, one_key_stats[i].invocations)
          << stats[i].name;
      EXPECT_EQ(stats[i].decisions, one_key_stats[i].decisions)
          << stats[i].name;
    }

    const std::string text = format_report(report);
    if (threads == 1) {
      reference_report = text;
      reference_stats = stats;
      continue;
    }
    EXPECT_EQ(text, reference_report) << threads << " threads";
    ASSERT_EQ(stats.size(), reference_stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].invocations, reference_stats[i].invocations)
          << threads << " threads, stage " << stats[i].name;
      EXPECT_EQ(stats[i].decisions, reference_stats[i].decisions)
          << threads << " threads, stage " << stats[i].name;
    }
  }
}

TEST(Auditor, StageStatsExposedInReport) {
  RecordUniverse u;
  u.add("x");
  u.add("y");
  AuditLog log;
  log.record_with_answer("u1", "x", true);
  log.record_with_answer("u2", "x | y", true);
  Auditor auditor(u, PriorAssumption::kProduct);
  const AuditReport report = auditor.audit(log, "x");

  const std::vector<StageStats> stats = report.stage_stats();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].name, "theorem-3.11");
  std::size_t decisions = 0;
  for (const StageStats& s : stats) decisions += s.decisions;
  // Every decided pair was decided by exactly one stage.
  EXPECT_GT(decisions, 0u);
  const std::string text = format_stage_stats(report);
  EXPECT_NE(text.find("theorem-3.11"), std::string::npos);
  EXPECT_NE(text.find("memo hits"), std::string::npos);
}

TEST(AuditReport, CountSections) {
  AuditReport report;
  AuditFinding safe;
  safe.verdict = Verdict::kSafe;
  AuditFinding unsafe;
  unsafe.verdict = Verdict::kUnsafe;
  report.per_disclosure = {safe, unsafe, safe};
  report.per_user_cumulative = {unsafe, unsafe};

  EXPECT_EQ(report.count(Verdict::kSafe), 2u);
  EXPECT_EQ(report.count(Verdict::kUnsafe), 3u);
  EXPECT_EQ(report.count(Verdict::kSafe, AuditReport::Section::kPerDisclosure),
            2u);
  EXPECT_EQ(report.count(Verdict::kUnsafe, AuditReport::Section::kPerDisclosure),
            1u);
  EXPECT_EQ(report.count(Verdict::kUnsafe, AuditReport::Section::kPerUser), 2u);
  EXPECT_EQ(report.count(Verdict::kSafe, AuditReport::Section::kPerUser), 0u);
}

/// A stage that short-circuits every pair — registered in front of the
/// cascade it must win every decision.
class VetoStage : public CriterionStage {
 public:
  std::string_view name() const override { return "custom-veto"; }
  StageDecision decide(const WorldSet&, const WorldSet&,
                       AuditContext&) const override {
    StageDecision d;
    d.verdict = Verdict::kSafe;
    d.method = "custom-veto";
    d.certified = false;
    return d;
  }
};

TEST(DecisionEngine, RegisteredCustomStageRunsFirst) {
  RecordUniverse u;
  u.add("x");
  u.add("y");
  Auditor auditor(u, PriorAssumption::kProduct);
  auditor.engine().register_stage(std::make_unique<VetoStage>(), 0);
  ASSERT_EQ(auditor.engine().stage_names().front(), "custom-veto");

  // "x" vs "x" is flagged unsafe by the stock cascade; the veto stage now
  // decides it first.
  AuditLog log;
  log.record_with_answer("u1", "x", true);
  const AuditReport report = auditor.audit(log, "x");
  EXPECT_EQ(report.per_disclosure[0].verdict, Verdict::kSafe);
  // The engine's critical-coordinate projection prefixes the method ("y" is
  // irrelevant to "x" vs "x"); the stage label must still be the decider.
  EXPECT_EQ(report.per_disclosure[0].method, "projected[1/2]+custom-veto");
  const std::vector<StageStats> stats = report.stage_stats();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].name, "custom-veto");
  EXPECT_GT(stats[0].decisions, 0u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_GE(pool.size(), 1u);
  constexpr std::size_t kCount = 997;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives an exceptional batch.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(8, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8u);
}

}  // namespace
}  // namespace epi
