#include "engine/decision_engine.h"

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "criteria/projection.h"
#include "engine/stages.h"
#include "obs/trace.h"

namespace epi {
namespace {

std::string describe_product_witness(const ProductDistribution& p) {
  std::ostringstream os;
  os << "product prior with p = (";
  for (unsigned i = 0; i < p.n(); ++i) {
    os << (i ? ", " : "") << p.param(i);
  }
  os << ")";
  return os.str();
}

/// Lifts a witness found in the projected space back to the full space:
/// projected parameters on kept coordinates, 1/2 on the irrelevant ones (any
/// value preserves the gap).
ProductDistribution lift_witness(const ProjectedPair& projection,
                                 const ProductDistribution& witness,
                                 unsigned original_n) {
  std::vector<double> params(original_n, 0.5);
  for (std::size_t i = 0; i < projection.kept_coordinates.size(); ++i) {
    params[projection.kept_coordinates[i]] =
        witness.param(static_cast<unsigned>(i));
  }
  return ProductDistribution(params);
}

}  // namespace

Status AuditorOptions::validate() const {
  if (enable_sos && max_sos_records == 0) {
    return Status::InvalidArgument(
        "AuditorOptions: enable_sos with max_sos_records == 0 gates the SOS "
        "stage off for every universe; set enable_sos = false instead");
  }
  if (ascent.multistarts <= 0) {
    return Status::InvalidArgument(
        "AuditorOptions: ascent.multistarts must be >= 1 (a zero-budget "
        "optimizer silently demotes open pairs to the numeric fallback)");
  }
  if (ascent.max_cycles <= 0) {
    return Status::InvalidArgument(
        "AuditorOptions: ascent.max_cycles must be >= 1");
  }
  return Status::Ok();
}

unsigned AuditorOptions::resolved_threads() const {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string to_string(PriorAssumption prior) {
  switch (prior) {
    case PriorAssumption::kUnrestricted:
      return "unrestricted";
    case PriorAssumption::kProduct:
      return "product";
    case PriorAssumption::kLogSupermodular:
      return "log-supermodular";
    case PriorAssumption::kSubcubeKnowledge:
      return "subcube-knowledge";
  }
  return "?";
}

DecisionEngine::DecisionEngine(unsigned records, PriorAssumption prior,
                               AuditorOptions options)
    : records_(records), prior_(prior), options_(options) {
  build_stages();
}

void DecisionEngine::build_stages() {
  switch (prior_) {
    case PriorAssumption::kUnrestricted:
      stages_.push_back(make_unrestricted_stage());
      exhausted_label_ = "exhausted-criteria";
      break;
    case PriorAssumption::kProduct:
      for (const NamedCriterion& entry : product_criteria()) {
        stages_.push_back(make_table_stage(entry, "product prior on "));
      }
      stages_.push_back(make_coordinate_ascent_stage(options_.ascent));
      // The legacy gate evaluates on the original record count (projection
      // may shrink the pair, but the enable decision predates it).
      stages_.push_back(make_sos_certificate_stage(
          options_.enable_sos && records_ <= options_.max_sos_records));
      stages_.push_back(make_numeric_fallback_stage());
      exhausted_label_ = "exhausted-combinatorial-criteria";
      break;
    case PriorAssumption::kLogSupermodular:
      for (const NamedCriterion& entry : supermodular_criteria()) {
        stages_.push_back(make_table_stage(entry, "log-supermodular prior on "));
      }
      exhausted_label_ = "exhausted-supermodular-criteria";
      break;
    case PriorAssumption::kSubcubeKnowledge:
      stages_.push_back(make_subcube_interval_stage());
      exhausted_label_ = "exhausted-interval-criteria";
      break;
  }
}

std::vector<std::string> DecisionEngine::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  return names;
}

void DecisionEngine::register_stage(std::unique_ptr<CriterionStage> stage,
                                    std::size_t position) {
  if (position > stages_.size()) position = stages_.size();
  stages_.insert(stages_.begin() + static_cast<std::ptrdiff_t>(position),
                 std::move(stage));
}

EngineDecision DecisionEngine::decide(const WorldSet& a, const WorldSet& b,
                                      AuditContext& ctx) const {
  obs::ScopedSpan span("engine.decide");
  EngineDecision decision = run_cascade(a, b, ctx, /*inc=*/nullptr).decision;
  if (span.live()) {
    span.attr("verdict", to_string(decision.verdict));
    span.attr("method", decision.method);
  }
  return decision;
}

EngineDecision DecisionEngine::decide_incremental(const WorldSet& a,
                                                  const WorldSet& s,
                                                  IncrementalContext& inc,
                                                  AuditContext& ctx) const {
  obs::ScopedSpan span("engine.decide.incremental");
  if (inc.valid && inc.pinned) {
    inc.last_mode = IncrementalContext::Mode::kPinned;
    ++inc.served_pinned;
    if (span.live()) span.attr("mode", "pinned");
    return inc.last;
  }
  if (inc.valid && !inc.dirty) {
    inc.last_mode = IncrementalContext::Mode::kUnchanged;
    ++inc.served_unchanged;
    if (span.live()) span.attr("mode", "unchanged");
    return inc.last;
  }
  if (inc.stage_states.size() != stages_.size()) {
    inc.stage_states.clear();
    inc.stage_states.resize(stages_.size());
    inc.probed.assign(stages_.size(), false);
  }
  CascadeResult r = run_cascade(a, s, ctx, &inc);
  inc.last = r.decision;
  inc.valid = true;
  inc.dirty = false;
  inc.pinned = r.monotone;
  inc.last_mode = IncrementalContext::Mode::kEvaluated;
  ++inc.evaluations;
  if (span.live()) {
    span.attr("mode", "evaluated");
    span.attr("verdict", to_string(inc.last.verdict));
    span.attr("method", inc.last.method);
  }
  return inc.last;
}

DecisionEngine::CascadeResult DecisionEngine::run_cascade(
    const WorldSet& a, const WorldSet& b, AuditContext& ctx,
    IncrementalContext* inc) const {
  const WorldSet* wa = &a;
  const WorldSet* wb = &b;

  // Symbolic pairs: the unrestricted cascade (Theorem 3.11) runs natively on
  // subcube covers; every other prior's stages walk worlds or per-world
  // weights, so the pair is densified first — exact, and within reach
  // whenever n <= kMaxCoordinates (past that, WorldSet::densified throws:
  // those priors genuinely need the dense machinery).
  std::optional<std::pair<WorldSet, WorldSet>> densified;
  if (prior_ != PriorAssumption::kUnrestricted &&
      (a.symbolic() || b.symbolic())) {
    densified.emplace(a.densified(), b.densified());
    wa = &densified->first;
    wb = &densified->second;
  }

  // Product-prior stage 0: drop non-critical coordinates (Section 6's
  // "relevant worlds" argument) — product-family safety is invariant under
  // marginalizing them, and every later stage gets exponentially cheaper.
  std::string prefix;
  std::optional<ProjectedPair> projection;
  if (prior_ == PriorAssumption::kProduct) {
    ProjectedPair p = project_to_critical(*wa, *wb);
    if (p.kept_coordinates.size() < a.n()) {
      prefix = "projected[" + std::to_string(p.kept_coordinates.size()) + "/" +
               std::to_string(a.n()) + "]+";
      projection = std::move(p);
      wa = &projection->a;
      wb = &projection->b;
    }
  }

  CascadeResult out;
  EngineDecision& result = out.decision;
  double numeric_gap = 0.0;
  bool decided = false;
  bool invoked_before = false;
  for (std::size_t i = 0; i < stages_.size() && !decided; ++i) {
    const CriterionStage& stage = *stages_[i];
    if (!stage.applicable(*wa, *wb, ctx)) continue;
    // The span duplicates the counter's interval measurement, but only while
    // tracing is on — the dormant ScopedSpan never reads the clock.
    std::optional<obs::ScopedSpan> stage_span;
    if (obs::tracing_enabled()) {
      stage_span.emplace("engine.stage." + std::string(stage.name()));
    }
    const auto t0 = std::chrono::steady_clock::now();
    StageIncrementalState* state = nullptr;
    if (inc != nullptr) {
      if (!inc->probed[i]) {
        inc->probed[i] = true;
        inc->stage_states[i] = stage.make_incremental_state(*wa, *wb, ctx);
      }
      state = inc->stage_states[i].get();
    }
    StageDecision d = state ? stage.decide_delta(*wa, *wb, *state, ctx)
                            : stage.decide(*wa, *wb, ctx);
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    ctx.record_stage(i, d.verdict != Verdict::kUnknown, elapsed);
    if (stage_span && stage_span->live()) {
      stage_span->attr("decided",
                       d.verdict != Verdict::kUnknown ? "true" : "false");
    }
    if (d.numeric_gap > numeric_gap) numeric_gap = d.numeric_gap;
    if (d.verdict == Verdict::kUnknown) {
      invoked_before = true;
      continue;
    }
    decided = true;
    // A monotone decision may only be pinned when no earlier stage was
    // invoked (an earlier kUnknown might decide differently for a smaller S)
    // and no projection prefix ties the method string to this S.
    out.monotone = d.monotone && !invoked_before && prefix.empty();
    result.verdict = d.verdict;
    result.method = prefix + d.method;
    result.certified = d.certified;
    result.detail = std::move(d.detail);
    if (d.witness_product) {
      result.witness_product =
          projection ? lift_witness(*projection, *d.witness_product, a.n())
                     : std::move(*d.witness_product);
      result.detail = describe_product_witness(*result.witness_product);
    }
  }
  if (!decided) {
    result.verdict = Verdict::kUnknown;
    result.method = exhausted_label_;
    result.certified = false;
  }
  result.numeric_gap = numeric_gap;
  return out;
}

std::vector<EngineDecision> DecisionEngine::decide_many(
    const WorldSet& a, std::span<const WorldSet* const> bs, AuditContext& ctx,
    ThreadPool* pool) const {
  std::vector<EngineDecision> out(bs.size());
  auto decide_one = [&](std::size_t i) { out[i] = decide(a, *bs[i], ctx); };
  if (pool == nullptr || bs.size() <= 1) {
    for (std::size_t i = 0; i < bs.size(); ++i) decide_one(i);
  } else {
    pool->parallel_for(bs.size(), decide_one);
  }
  return out;
}

}  // namespace epi
