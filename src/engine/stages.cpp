#include "engine/stages.h"

#include <utility>

#include "criteria/unconditional.h"
#include "engine/audit_context.h"
#include "optimize/positivstellensatz.h"
#include "worlds/finite_set.h"

namespace epi {
namespace {

class TableStage : public CriterionStage {
 public:
  TableStage(const NamedCriterion& entry, std::string distribution_label)
      : entry_(entry), distribution_label_(std::move(distribution_label)) {}

  std::string_view name() const override { return entry_.name; }

  bool applicable(const WorldSet& a, const WorldSet&,
                  const AuditContext&) const override {
    return entry_.max_n == 0 || a.n() <= entry_.max_n;
  }

  StageDecision decide(const WorldSet& a, const WorldSet& b,
                       AuditContext&) const override {
    StageDecision d;
    CriterionOutcome o = entry_.test(a, b);
    if (o.verdict == Verdict::kUnknown) return d;
    d.verdict = o.verdict;
    d.method = entry_.name;
    d.certified = true;
    if (o.witness_distribution) {
      d.detail = distribution_label_ + o.witness_distribution->support().to_string();
    }
    d.witness_product = std::move(o.witness_product);
    return d;
  }

 private:
  NamedCriterion entry_;
  std::string distribution_label_;
};

class UnrestrictedStage : public CriterionStage {
 public:
  std::string_view name() const override { return "theorem-3.11"; }

  StageDecision decide(const WorldSet& a, const WorldSet& b,
                       AuditContext&) const override {
    StageDecision d;
    d.method = "theorem-3.11";
    d.certified = true;
    // unconditionally_safe(a, b) split into its two Thm. 3.11 disjuncts so
    // the first can be flagged monotone: A ∩ B = ∅ survives any further
    // intersection of B (Prop. 3.10 composition), while A ∪ B = Ω does not.
    // Same tests, same order, identical decisions.
    if (a.disjoint_with(b)) {
      d.verdict = Verdict::kSafe;
      d.monotone = true;
    } else if (union_is_universe(a, b)) {
      d.verdict = Verdict::kSafe;
    } else {
      // The two-point witness of unrestricted_witness(), named by its
      // support worlds instead of built as a dense 2^n Distribution. The
      // bytes match its support().to_string() (worlds in increasing order),
      // which the probabilistic-unrestricted and backend-parity model checks
      // pin.
      d.verdict = Verdict::kUnsafe;
      World w1 = (a & b).min_world();
      World w2 = (~(a | b)).min_world();
      if (w2 < w1) std::swap(w1, w2);
      d.detail = "two-point prior on {" + world_to_string(w1, a.n()) + "," +
                 world_to_string(w2, a.n()) + "}";
    }
    return d;
  }
};

class CoordinateAscentStage : public CriterionStage {
 public:
  explicit CoordinateAscentStage(AscentOptions options) : options_(options) {}

  std::string_view name() const override { return "coordinate-ascent"; }

  StageDecision decide(const WorldSet& a, const WorldSet& b,
                       AuditContext&) const override {
    StageDecision d;
    const AscentResult numeric = maximize_product_gap(a, b, options_);
    d.numeric_gap = numeric.max_gap;
    if (numeric.max_gap > 1e-9) {
      d.verdict = Verdict::kUnsafe;
      d.method = "coordinate-ascent";
      d.certified = true;  // the witness itself is the proof
      d.witness_product = ProductDistribution(numeric.argmax);
    }
    return d;
  }

 private:
  AscentOptions options_;
};

class SosCertificateStage : public CriterionStage {
 public:
  explicit SosCertificateStage(bool enabled) : enabled_(enabled) {}

  std::string_view name() const override { return "sos-certificate"; }

  bool applicable(const WorldSet&, const WorldSet&,
                  const AuditContext&) const override {
    return enabled_;
  }

  StageDecision decide(const WorldSet& a, const WorldSet& b,
                       AuditContext&) const override {
    StageDecision d;
    if (sos_product_safety(a, b) == Verdict::kSafe) {
      d.verdict = Verdict::kSafe;
      d.method = "sos-certificate";
      d.certified = true;
    }
    return d;
  }

 private:
  bool enabled_;
};

class NumericFallbackStage : public CriterionStage {
 public:
  std::string_view name() const override { return "numeric-only"; }

  StageDecision decide(const WorldSet&, const WorldSet&,
                       AuditContext&) const override {
    StageDecision d;
    d.verdict = Verdict::kSafe;
    d.method = "numeric-only";
    d.certified = false;
    return d;
  }
};

class SubcubeIntervalStage : public CriterionStage {
 public:
  std::string_view name() const override { return "subcube-intervals"; }

  StageDecision decide(const WorldSet& a, const WorldSet& b,
                       AuditContext& ctx) const override {
    StageDecision d;
    d.certified = true;
    bool safe;
    if (const auto& prepared = ctx.prepared_for(a)) {
      safe = prepared->safe(to_finite(b));
      d.method = "subcube-intervals(prepared)";
    } else {
      safe = ctx.interval_oracle()->safe_minimal_intervals(to_finite(a),
                                                           to_finite(b));
      d.method = "subcube-intervals";
    }
    d.verdict = safe ? Verdict::kSafe : Verdict::kUnsafe;
    if (!safe) {
      d.detail = "a user knowing some records' exact contents learns A";
    }
    return d;
  }

  /// Session state: the Δ-class counters of Corollary 4.12, maintained
  /// incrementally as S shrinks (see IntervalOracle::IncrementalSafe).
  /// Only offered when the context has Delta classes prepared for exactly
  /// this A — the shared_ptr keeps them alive across worker-context
  /// rebuilds — so the delta path reproduces the "(prepared)" method
  /// string byte for byte.
  struct State : StageIncrementalState {
    explicit State(std::shared_ptr<const IntervalOracle::PreparedAudit> p)
        : index(std::move(p)) {}
    IntervalOracle::IncrementalSafe index;
  };

  std::unique_ptr<StageIncrementalState> make_incremental_state(
      const WorldSet& a, const WorldSet&, AuditContext& ctx) const override {
    const auto& prepared = ctx.prepared_for(a);
    if (!prepared) return nullptr;
    return std::make_unique<State>(prepared);
  }

  StageDecision decide_delta(const WorldSet&, const WorldSet& b,
                             StageIncrementalState& state,
                             AuditContext&) const override {
    IntervalOracle::IncrementalSafe& index =
        static_cast<State&>(state).index;
    const FiniteSet s = to_finite(b);
    if (!index.initialized() || !index.shrink_to(s)) index.reset(s);
    StageDecision d;
    d.certified = true;
    d.method = "subcube-intervals(prepared)";
    const bool safe = index.safe();
    d.verdict = safe ? Verdict::kSafe : Verdict::kUnsafe;
    if (!safe) {
      d.detail = "a user knowing some records' exact contents learns A";
    }
    // A ∩ S = ∅ is absorbing under composition: Cor. 4.12 quantifies over
    // w1 ∈ A ∩ S, so the Safe decision is byte-identical for every S' ⊆ S.
    d.monotone = safe && index.active_empty();
    return d;
  }
};

}  // namespace

std::unique_ptr<CriterionStage> make_table_stage(const NamedCriterion& entry,
                                                 std::string distribution_label) {
  return std::make_unique<TableStage>(entry, std::move(distribution_label));
}

std::unique_ptr<CriterionStage> make_unrestricted_stage() {
  return std::make_unique<UnrestrictedStage>();
}

std::unique_ptr<CriterionStage> make_coordinate_ascent_stage(
    AscentOptions options) {
  return std::make_unique<CoordinateAscentStage>(options);
}

std::unique_ptr<CriterionStage> make_sos_certificate_stage(bool enabled) {
  return std::make_unique<SosCertificateStage>(enabled);
}

std::unique_ptr<CriterionStage> make_numeric_fallback_stage() {
  return std::make_unique<NumericFallbackStage>();
}

std::unique_ptr<CriterionStage> make_subcube_interval_stage() {
  return std::make_unique<SubcubeIntervalStage>();
}

}  // namespace epi
