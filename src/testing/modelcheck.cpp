#include "testing/modelcheck.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/audit_log.h"
#include "core/auditor.h"
#include "criteria/pipeline.h"
#include "criteria/unconditional.h"
#include "db/parser.h"
#include "engine/decision_engine.h"
#include "possibilistic/intervals.h"
#include "possibilistic/laminar.h"
#include "possibilistic/rectangles.h"
#include "possibilistic/safe.h"
#include "possibilistic/subcubes.h"
#include "probabilistic/modularity.h"
#include "probabilistic/safe.h"
#include "service/audit_service.h"
#include "testing/generators.h"
#include "testing/oracle.h"
#include "workloads/family.h"
#include "worlds/dense_bits.h"

namespace epi {
namespace testing {
namespace {

// --- Case plumbing ----------------------------------------------------------

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s; ++s) h = (h ^ static_cast<unsigned char>(*s)) * 1099511628211ull;
  return h;
}

/// Every (seed, check, case) triple gets its own Rng, so one case replays
/// identically whether the whole suite or just that case runs.
Rng case_rng(std::uint64_t seed, const char* check, std::uint64_t case_index) {
  return Rng(bits::hash_combine(bits::hash_combine(seed, fnv1a(check)),
                                case_index));
}

/// One scenario's verdicts. Each check function appends a description per
/// disagreement; the driver attaches the repro command line.
using Failures = std::vector<std::string>;

std::string verdict_name(Verdict v) { return to_string(v); }

std::string pair_text(const FiniteSet& a, const FiniteSet& b) {
  std::ostringstream os;
  os << "m=" << a.universe_size() << " A=" << a.to_string()
     << " B=" << b.to_string();
  return os.str();
}

std::string pair_text(const WorldSet& a, const WorldSet& b) {
  std::ostringstream os;
  os << "n=" << a.n() << " A=" << a.to_string() << " B=" << b.to_string();
  return os.str();
}

// --- Check 1: possibilistic-unrestricted (Def. 3.1 vs Theorem 3.11) ---------

void check_possibilistic_unrestricted(Rng& rng, const ModelCheckOptions& opt,
                                      Failures& out) {
  const std::size_t m = 1 + rng.next_below(opt.max_m);
  FiniteSet a = random_finite_set(rng, m);
  FiniteSet b = random_finite_set(rng, m);

  const PossOracleResult oracle = oracle_possibilistic_full(a, b);
  if (safe_unrestricted(a, b) != oracle.safe) {
    auto disagrees = [](const FiniteSet& na, const FiniteSet& nb) {
      return safe_unrestricted(na, nb) != oracle_possibilistic_full(na, nb).safe;
    };
    auto [ua, ub] = shrink_universe(a, b, disagrees);
    auto [sa, sb] = shrink_pair(ua, ub, disagrees);
    std::ostringstream os;
    os << "safe_unrestricted=" << !oracle.safe << " but Def. 3.1 oracle says "
       << (oracle.safe ? "safe" : "unsafe") << "; " << pair_text(a, b)
       << "; shrunk: " << pair_text(sa, sb);
    out.push_back(os.str());
  }

  // The library's general Def. 3.1 evaluator over the explicit full K must
  // agree with the oracle's own enumeration, and its violation witness must
  // actually violate (m <= 7 keeps the materialized K small).
  if (m <= 7) {
    const SecondLevelKnowledge k = SecondLevelKnowledge::full(m);
    if (safe_possibilistic(k, a, b) != oracle.safe) {
      out.push_back("safe_possibilistic(full K) disagrees with oracle; " +
                    pair_text(a, b));
    }
    if (const auto v = find_possibilistic_violation(k, a, b)) {
      bool s_subset_a = true, s_cap_b_subset_a = true;
      for (std::size_t e = 0; e < m; ++e) {
        if (!v->knowledge.contains(e) || a.contains(e)) continue;
        s_subset_a = false;
        if (b.contains(e)) s_cap_b_subset_a = false;
      }
      if (!(b.contains(v->world) && s_cap_b_subset_a && !s_subset_a)) {
        out.push_back("find_possibilistic_violation returned a non-violating "
                      "pair; " + pair_text(a, b));
      }
    } else if (!oracle.safe) {
      out.push_back("oracle found a violation but "
                    "find_possibilistic_violation did not; " + pair_text(a, b));
    }
  }

  // Known-world variant (Theorem 3.11, second part) on a few sampled worlds.
  for (int i = 0; i < 3; ++i) {
    const std::size_t w = rng.next_below(m);
    if (safe_unrestricted_known_world(a, b, w) !=
        oracle_possibilistic_known_world(a, b, w).safe) {
      std::ostringstream os;
      os << "safe_unrestricted_known_world disagrees with the Def. 3.1 "
            "oracle at world " << w << "; " << pair_text(a, b);
      out.push_back(os.str());
      break;
    }
  }
}

// --- Check 2: probabilistic-unrestricted (Def. 3.4 vs Theorem 3.11) ---------

void check_probabilistic_unrestricted(Rng& rng, const ModelCheckOptions& opt,
                                      Failures& out) {
  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(opt.max_n));
  WorldSet a = random_world_set(rng, n);
  WorldSet b = random_world_set(rng, n);

  const UnrestrictedProbOracleResult oracle = oracle_unrestricted_prob(a, b);
  auto shrunk_text = [&](auto&& disagrees) {
    auto [ca, cb] = shrink_coordinates(a, b, disagrees);
    auto [sa, sb] = shrink_pair(ca, cb, disagrees);
    return pair_text(sa, sb);
  };

  if (unconditionally_safe(a, b) != oracle.safe) {
    auto bad = [](const WorldSet& x, const WorldSet& y) {
      return unconditionally_safe(x, y) != oracle_unrestricted_prob(x, y).safe;
    };
    out.push_back("unconditionally_safe disagrees with the two-point-prior "
                  "oracle; " + pair_text(a, b) + "; shrunk: " +
                  shrunk_text(bad));
  }
  if (safe_unrestricted_prob(a, b) != oracle.safe) {
    out.push_back("safe_unrestricted_prob disagrees with the oracle; " +
                  pair_text(a, b));
  }

  // The engine's unrestricted cascade is exact: always definite and
  // matching, and an Unsafe detail names the support of
  // unrestricted_witness, whose gap is checked right below.
  AuditContext ctx;
  const EngineDecision d =
      DecisionEngine(n, PriorAssumption::kUnrestricted).decide(a, b, ctx);
  if (d.verdict == Verdict::kUnknown ||
      (d.verdict == Verdict::kSafe) != oracle.safe) {
    out.push_back("engine (unrestricted) verdict " + verdict_name(d.verdict) +
                  " vs oracle " + (oracle.safe ? "safe" : "unsafe") + "; " +
                  pair_text(a, b));
  }
  const std::optional<Distribution> w = unrestricted_witness(a, b);
  if (w.has_value() == oracle.safe) {
    out.push_back("unrestricted_witness presence contradicts the oracle; " +
                  pair_text(a, b));
  } else if (w && oracle_double_gap(*w, a, b) <= 0.0) {
    out.push_back("unrestricted_witness gap is not positive; " +
                  pair_text(a, b));
  }
  if (d.verdict == Verdict::kUnsafe && w &&
      d.detail != "two-point prior on " + w->support().to_string()) {
    out.push_back("engine (unrestricted) Unsafe detail \"" + d.detail +
                  "\" does not name unrestricted_witness's support " +
                  w->support().to_string() + "; " + pair_text(a, b));
  }

  // Theorem 3.11 equates the possibilistic and probabilistic unrestricted
  // predicates; cross-check the two *oracles* against each other (n <= 3
  // keeps the 2^(2^n) possibilistic enumeration small).
  if (n <= 3) {
    const FiniteSet fa = to_finite(a), fb = to_finite(b);
    if (oracle_possibilistic_full(fa, fb).safe != oracle.safe) {
      out.push_back("possibilistic and probabilistic oracles disagree on an "
                    "unrestricted pair; " + pair_text(a, b));
    }
    const World star = static_cast<World>(rng.next_below(a.omega_size()));
    if (unconditionally_safe_known_world(a, b, star) !=
        oracle_possibilistic_known_world(fa, fb, star).safe) {
      std::ostringstream os;
      os << "unconditionally_safe_known_world disagrees with the oracle at "
            "world " << star << "; " << pair_text(a, b);
      out.push_back(os.str());
    }
  }
}

// --- Check 3: sigma-intervals (Section 4.1 vs Def. 3.1 over C x Sigma) ------

void check_sigma_intervals(Rng& rng, const ModelCheckOptions& opt,
                           Failures& out) {
  // Draw a knowledge family: explicit intersection-closed, laminar hierarchy,
  // the full power set, the subcubes of {0,1}^n (whose Delta classes take
  // the closed form), or Example 4.9's integer-rectangle grid.
  std::shared_ptr<const SigmaFamily> family;
  const char* kind;
  std::size_t m;
  switch (rng.next_below(5)) {
    case 0: {
      m = 2 + rng.next_below(opt.max_m - 1);
      family = std::make_shared<ExplicitSigma>(random_closed_family(rng, m));
      kind = "explicit-closure";
      break;
    }
    case 1: {
      m = 2 + rng.next_below(opt.max_m - 1);
      family = std::make_shared<LaminarSigma>(random_laminar(rng, m));
      kind = "laminar";
      break;
    }
    case 2: {
      m = 2 + rng.next_below(opt.max_m - 1);
      family = std::make_shared<PowerSetSigma>(m);
      kind = "powerset";
      break;
    }
    case 3: {
      unsigned max_n = 1;  // floor(log2(max_m)), at least 1
      while ((std::size_t{2} << max_n) <= opt.max_m) ++max_n;
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(max_n));
      auto subcubes = std::make_shared<SubcubeSigma>(n);
      m = subcubes->universe_size();
      family = std::move(subcubes);
      kind = "subcubes";
      break;
    }
    default: {
      const std::size_t w = 1 + rng.next_below(3);
      const std::size_t h = 1 + rng.next_below(3);
      m = w * h;
      family = std::make_shared<RectangleSigma>(GridDomain(w, h));
      kind = "rectangles";
      break;
    }
  }
  const FiniteSet c = random_finite_set(rng, m);
  FiniteSet a = random_finite_set(rng, m);
  FiniteSet b = random_finite_set(rng, m);

  // Ground truth: Def. 3.1 over the materialized K = C (x) Sigma.
  const std::vector<FiniteSet> sets = family->enumerate();
  const SecondLevelKnowledge k = SecondLevelKnowledge::product(c, sets);
  const bool truth = oracle_possibilistic(k, a, b).safe;

  auto complain = [&](const char* what, bool got) {
    if (got == truth) return;
    // The family and C stay fixed; shrink A and B against the full chain.
    auto bad = [&](const FiniteSet& x, const FiniteSet& y) {
      const bool o = oracle_possibilistic(k, x, y).safe;
      IntervalOracle io(family, c);
      return safe_possibilistic(k, x, y) != o ||
             safe_c_sigma(c, *family, x, y) != o ||
             io.safe_all_intervals(x, y) != o ||
             io.safe_minimal_intervals(x, y) != o ||
             io.prepare(x).safe(y) != o;
    };
    auto [sa, sb] = shrink_pair(a, b, bad);
    std::ostringstream os;
    os << what << " says " << (got ? "safe" : "unsafe") << " but Def. 3.1 over "
       << kind << " K says " << (truth ? "safe" : "unsafe") << "; C="
       << c.to_string() << " " << pair_text(a, b) << "; shrunk: "
       << pair_text(sa, sb);
    out.push_back(os.str());
  };

  complain("safe_possibilistic", safe_possibilistic(k, a, b));
  complain("safe_c_sigma (Prop. 3.3)", safe_c_sigma(c, *family, a, b));

  IntervalOracle io(family, c);
  complain("safe_all_intervals (Prop. 4.5)", io.safe_all_intervals(a, b));
  complain("safe_minimal_intervals (Cor. 4.12)",
           io.safe_minimal_intervals(a, b));
  complain("PreparedAudit::safe (Cor. 4.12, amortized)", io.prepare(a).safe(b));

  // Corollary 4.14 where the family is tight: Safe iff beta(w1) subseteq B
  // for every w1 in A cap B.
  if (io.has_tight_intervals()) {
    const auto beta = io.beta(a);
    if (!beta) {
      out.push_back(std::string("tight intervals but no beta map (") + kind +
                    "); " + pair_text(a, b));
    } else {
      bool via_beta = true;
      for (std::size_t w1 = 0; w1 < m && via_beta; ++w1) {
        if (a.contains(w1) && b.contains(w1) &&
            !(*beta)[w1].subset_of(b)) {
          via_beta = false;
        }
      }
      complain("beta margin (Cor. 4.14)", via_beta);
    }
  }
}

// --- Checks 4/5 shared: sampled-family refutation of a Safe verdict ---------

/// A Safe verdict over a prior family is refuted by any sampled member with
/// an exactly positive gap. Returns the violating sample's index.
std::optional<std::size_t> refute_safe(const std::vector<ExactDistribution>& pi,
                                       const WorldSet& a, const WorldSet& b) {
  const ProbOracleResult r = oracle_family(pi, a, b);
  return r.violating_prior;
}

std::vector<ExactDistribution> sample_products(Rng& rng, unsigned n,
                                               std::size_t count) {
  std::vector<ExactDistribution> pi;
  pi.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pi.push_back(random_exact_product(rng, n));
  }
  // For tiny n, the full {0, 1/2, 1}^n parameter grid is cheap and covers
  // every corner the random draw misses.
  if (n <= 3) {
    std::vector<Rational> params(n);
    std::size_t total = 1;
    for (unsigned i = 0; i < n; ++i) total *= 3;
    for (std::size_t q = 0; q < total; ++q) {
      std::size_t rest = q;
      for (unsigned i = 0; i < n; ++i) {
        params[i] = Rational(static_cast<std::int64_t>(rest % 3), 2);
        rest /= 3;
      }
      pi.push_back(ExactDistribution::product(params));
    }
  }
  return pi;
}

// --- Checks 4/5/6 shared: every definite entry of a criterion table --------

/// One table entry that decided (A, B).
struct DefiniteEntry {
  const NamedCriterion* entry;
  CriterionOutcome outcome;
};

/// Every entry of `table` that applies at A's dimension (the engine's
/// max_n gate) and decides (A, B), in table order. The checks judge each of
/// them, not only the first one the engine's cascade stops at.
std::vector<DefiniteEntry> definite_entries(
    const std::vector<NamedCriterion>& table, const WorldSet& a,
    const WorldSet& b) {
  std::vector<DefiniteEntry> decided;
  for (const NamedCriterion& entry : table) {
    if (entry.max_n != 0 && a.n() > entry.max_n) continue;
    CriterionOutcome o = entry.test(a, b);
    if (o.verdict != Verdict::kUnknown) decided.push_back({&entry, std::move(o)});
  }
  return decided;
}

bool any_safe(const std::vector<DefiniteEntry>& decided) {
  return std::any_of(decided.begin(), decided.end(), [](const DefiniteEntry& d) {
    return d.outcome.verdict == Verdict::kSafe;
  });
}

/// A verified product witness: parameters in [0, 1] and a positive gap.
bool verified_product_witness(const ProductDistribution& p, const WorldSet& a,
                              const WorldSet& b) {
  for (const double q : p.params()) {
    if (q < 0.0 || q > 1.0) return false;
  }
  return p.safety_gap(a, b) > 0.0;
}

/// Reports a table entry's Safe verdict that the sampled priors refute,
/// shrunk against "this entry still says Safe and the samples drawn from
/// `sample_seed` at the candidate's dimension still refute it".
template <typename Sample>
void report_refuted_safe(const char* family, const NamedCriterion& entry,
                         std::size_t bad, std::uint64_t sample_seed,
                         Sample&& sample, const WorldSet& a, const WorldSet& b,
                         Failures& out) {
  auto still = [&](const WorldSet& x, const WorldSet& y) {
    if (entry.test(x, y).verdict != Verdict::kSafe) return false;
    Rng r2(sample_seed);
    return refute_safe(sample(r2, x.n()), x, y).has_value();
  };
  auto [ca, cb] = shrink_coordinates(a, b, still);
  auto [sa, sb] = shrink_pair(ca, cb, still);
  std::ostringstream os;
  os << family << " criterion (" << entry.name << ") claims Safe but sampled "
     << "prior #" << bad << " gains confidence; " << pair_text(a, b)
     << "; shrunk: " << pair_text(sa, sb);
  out.push_back(os.str());
}

// --- Check 4: product-cascade (Pi_m0) ---------------------------------------

void check_product_cascade(Rng& rng, const ModelCheckOptions& opt,
                           Failures& out) {
  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(opt.max_n));
  WorldSet a = random_world_set(rng, n);
  WorldSet b = random_world_set(rng, n);
  const std::uint64_t sample_seed = rng.next_u64();
  auto sample = [&](Rng& srng, unsigned dim) {
    return sample_products(srng, dim, opt.prior_samples);
  };

  const std::vector<DefiniteEntry> decided =
      definite_entries(product_criteria(), a, b);
  // One draw of samples refutes every Safe entry alike.
  std::optional<std::size_t> refuted;
  if (any_safe(decided)) {
    Rng srng(sample_seed);
    refuted = refute_safe(sample(srng, n), a, b);
  }
  for (const DefiniteEntry& d : decided) {
    const std::string name = d.entry->name;
    if (d.outcome.verdict == Verdict::kSafe) {
      if (refuted) {
        report_refuted_safe("product", *d.entry, *refuted, sample_seed, sample,
                            a, b, out);
      }
      continue;
    }
    // Necessary side: the verdict must come with a witness that really lies
    // in Pi_m0 and really has a positive gap.
    if (d.outcome.witness_product) {
      if (!verified_product_witness(*d.outcome.witness_product, a, b)) {
        out.push_back("product criterion (" + name + ") Unsafe witness has a "
                      "parameter outside [0,1] or a non-positive gap; " +
                      pair_text(a, b));
      }
    } else if (d.outcome.witness_distribution) {
      if (!is_product(*d.outcome.witness_distribution)) {
        out.push_back("product criterion (" + name + ") Unsafe witness is "
                      "not a product prior; " + pair_text(a, b));
      } else if (oracle_double_gap(*d.outcome.witness_distribution, a, b) <=
                 0.0) {
        out.push_back("product criterion (" + name + ") Unsafe witness has "
                      "non-positive gap; " + pair_text(a, b));
      }
    } else {
      out.push_back("product criterion (" + name + ") Unsafe without a "
                    "witness; " + pair_text(a, b));
    }
  }
}

// --- Check 5: supermodular-cascade (Pi_m+) ----------------------------------

void check_supermodular_cascade(Rng& rng, const ModelCheckOptions& opt,
                                Failures& out) {
  const unsigned n =
      1 + static_cast<unsigned>(rng.next_below(std::min(opt.max_n, 4u)));
  WorldSet a = random_world_set(rng, n);
  WorldSet b = random_world_set(rng, n);
  const std::uint64_t sample_seed = rng.next_u64();

  // Pi_m0 subseteq Pi_m+ (Equation (18)): sample both kinds, and self-check
  // the Ising generator against the exact Definition 5.1 test.
  auto sample_family = [&](Rng& srng, unsigned dim) {
    std::vector<ExactDistribution> pi;
    for (std::size_t i = 0; i < opt.prior_samples / 2; ++i) {
      pi.push_back(random_exact_log_supermodular(srng, dim));
      pi.push_back(random_exact_product(srng, dim));
    }
    return pi;
  };
  {
    Rng srng(sample_seed);
    for (const ExactDistribution& p : sample_family(srng, n)) {
      if (!p.is_log_supermodular()) {
        out.push_back("generator produced a prior outside Pi_m+ at n=" +
                      std::to_string(n));
        return;  // the generator is broken; scenario verdicts are meaningless
      }
    }
  }

  const std::vector<DefiniteEntry> decided =
      definite_entries(supermodular_criteria(), a, b);
  std::optional<std::size_t> refuted;
  if (any_safe(decided)) {
    Rng srng(sample_seed);
    refuted = refute_safe(sample_family(srng, n), a, b);
  }
  for (const DefiniteEntry& d : decided) {
    const std::string name = d.entry->name;
    if (d.outcome.verdict == Verdict::kSafe) {
      if (refuted) {
        report_refuted_safe("supermodular", *d.entry, *refuted, sample_seed,
                            sample_family, a, b, out);
      }
    } else if (d.outcome.witness_distribution) {
      if (oracle_double_gap(*d.outcome.witness_distribution, a, b) <= 0.0) {
        out.push_back("supermodular criterion (" + name + ") Unsafe witness "
                      "has non-positive gap; " + pair_text(a, b));
      } else if (!is_log_supermodular(*d.outcome.witness_distribution, 1e-9)) {
        out.push_back("supermodular criterion (" + name + ") Unsafe witness "
                      "lies outside Pi_m+; " + pair_text(a, b));
      }
    } else if (d.outcome.witness_product) {
      // Product priors are log-supermodular by Equation (18).
      if (d.outcome.witness_product->safety_gap(a, b) <= 0.0) {
        out.push_back("supermodular criterion (" + name + ") Unsafe product "
                      "witness has non-positive gap; " + pair_text(a, b));
      }
    } else {
      out.push_back("supermodular criterion (" + name + ") Unsafe without a "
                    "witness; " + pair_text(a, b));
    }
  }

  // Pi_m0 subseteq Pi_m+: Safe over the superset family implies Safe over
  // products, so a *verified* product-side Unsafe witness is a contradiction.
  if (any_safe(decided)) {
    for (const DefiniteEntry& d : definite_entries(product_criteria(), a, b)) {
      if (d.outcome.verdict == Verdict::kUnsafe && d.outcome.witness_product &&
          d.outcome.witness_product->safety_gap(a, b) > 0.0) {
        out.push_back("supermodular criteria say Safe but the product "
                      "criterion (" + std::string(d.entry->name) + ") holds a "
                      "verified violating product prior (Pi_m0 subseteq "
                      "Pi_m+ broken); " + pair_text(a, b));
      }
    }
  }
}

// --- Check 6: engine-parity -------------------------------------------------

RecordUniverse make_universe(unsigned n) {
  RecordUniverse u;
  for (unsigned i = 0; i < n; ++i) u.add("r" + std::to_string(i));
  return u;
}

/// `s` over one more record, coordinate 0, that it does not depend on; its
/// own records shift up by one, so a lift that misplaces kept coordinates
/// shows.
WorldSet with_idle_record(const WorldSet& s) {
  WorldSet out(s.n() + 1);
  s.visit([&](World w) {
    out.insert(w << 1);
    out.insert((w << 1) | 1);
  });
  return out;
}

void check_engine_parity(Rng& rng, const ModelCheckOptions& opt,
                         Failures& out) {
  static constexpr PriorAssumption kPriors[] = {
      PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
      PriorAssumption::kLogSupermodular, PriorAssumption::kSubcubeKnowledge};
  const PriorAssumption prior = kPriors[rng.next_below(4)];
  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(opt.max_n));
  const WorldSet a = random_world_set(rng, n);
  const WorldSet b = random_world_set(rng, n);

  const Auditor auditor(make_universe(n), prior);
  const AuditFinding d1 = auditor.audit_sets(a, b);
  const AuditFinding d2 = auditor.audit_sets(a, b);
  if (d1.verdict != d2.verdict || d1.method != d2.method ||
      d1.certified != d2.certified) {
    out.push_back("engine decision not deterministic under " +
                  to_string(prior) + "; " + pair_text(a, b));
    return;
  }

  switch (prior) {
    case PriorAssumption::kUnrestricted: {
      const bool safe = oracle_unrestricted_prob(a, b).safe;
      if (!d1.certified || (d1.verdict == Verdict::kSafe) != safe ||
          d1.verdict == Verdict::kUnknown) {
        out.push_back("engine (unrestricted) verdict " +
                      verdict_name(d1.verdict) + " vs oracle " +
                      (safe ? "safe" : "unsafe") + "; " + pair_text(a, b));
      }
      break;
    }
    case PriorAssumption::kProduct:
    case PriorAssumption::kLogSupermodular: {
      // The engine (with projection, SOS, optimizer) and the raw criterion
      // table are independent paths; a certified verdict must never cross
      // any definite table entry.
      const auto& table = prior == PriorAssumption::kProduct
                              ? product_criteria()
                              : supermodular_criteria();
      for (const DefiniteEntry& d : definite_entries(table, a, b)) {
        if (d1.certified && d1.verdict != Verdict::kUnknown &&
            d1.verdict != d.outcome.verdict) {
          out.push_back("engine (" + to_string(prior) + ", " + d1.method +
                        ") says " + verdict_name(d1.verdict) +
                        " but the criterion table (" + d.entry->name +
                        ") says " + verdict_name(d.outcome.verdict) + "; " +
                        pair_text(a, b));
        }
      }
      // An Unsafe product decision carries its witness, lifted back to all
      // records: it must re-check on the unprojected pair. Random pairs
      // rarely leave a record idle, so the pair is also decided with one
      // extra record neither set depends on, which the engine always
      // projects away and must lift back.
      if (prior == PriorAssumption::kProduct &&
          d1.verdict == Verdict::kUnsafe) {
        for (const auto& [x, y] : {std::pair{a, b}, std::pair{with_idle_record(a),
                                                          with_idle_record(b)}}) {
          AuditContext ctx;
          const EngineDecision e =
              DecisionEngine(x.n(), prior).decide(x, y, ctx);
          if (!e.witness_product || e.witness_product->n() != x.n() ||
              !verified_product_witness(*e.witness_product, x, y)) {
            out.push_back("engine (product, " + e.method + ") Unsafe witness "
                          "is missing, not over all " + std::to_string(x.n()) +
                          " records, outside [0,1] or not gaining (" +
                          e.detail + "); " + pair_text(x, y));
          }
        }
      }
      // Any certified Safe must survive sampled exact members of the family.
      if (d1.certified && d1.verdict == Verdict::kSafe) {
        Rng srng(bits::hash_combine(fnv1a("engine-samples"), rng.next_u64()));
        std::vector<ExactDistribution> pi =
            sample_products(srng, n, opt.prior_samples);
        if (prior == PriorAssumption::kLogSupermodular) {
          for (std::size_t i = 0; i < opt.prior_samples && n <= 5; ++i) {
            pi.push_back(random_exact_log_supermodular(srng, n));
          }
        }
        if (refute_safe(pi, a, b)) {
          out.push_back("engine (" + to_string(prior) + ", " + d1.method +
                        ") certified Safe refuted by a sampled exact "
                        "prior; " + pair_text(a, b));
        }
      }
      break;
    }
    case PriorAssumption::kSubcubeKnowledge: {
      // Ground truth from Def. 3.1 over the materialized subcube family
      // (3^n knowledge sets, C = Omega).
      const SubcubeSigma sigma(n);
      const SecondLevelKnowledge k = SecondLevelKnowledge::product(
          FiniteSet::universe(sigma.universe_size()), sigma.enumerate());
      const bool safe =
          oracle_possibilistic(k, to_finite(a), to_finite(b)).safe;
      if (d1.verdict == Verdict::kUnknown ||
          (d1.verdict == Verdict::kSafe) != safe) {
        out.push_back("engine (subcube-knowledge, " + d1.method + ") says " +
                      verdict_name(d1.verdict) + " but Def. 3.1 over the "
                      "subcube family says " + (safe ? "safe" : "unsafe") +
                      "; " + pair_text(a, b));
      }
      break;
    }
  }
}

// --- Check 7: service-composition (Def. 3.9 / Prop. 3.10) -------------------

void check_service_composition(Rng& rng, const ModelCheckOptions& opt,
                               Failures& out) {
  (void)opt;
  static constexpr PriorAssumption kPriors[] = {
      PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
      PriorAssumption::kLogSupermodular, PriorAssumption::kSubcubeKnowledge};
  const PriorAssumption prior = kPriors[rng.next_below(4)];
  const unsigned n = 2 + static_cast<unsigned>(rng.next_below(2));
  const RecordUniverse universe = make_universe(n);
  const std::vector<std::string> names = universe.names();
  const std::string audit_query = random_query_text(rng, names, 2);
  const World initial_state =
      static_cast<World>(rng.next_bits(static_cast<unsigned>(n)));

  // A short replayed log for two users.
  static const char* kUsers[] = {"alice", "bob"};
  AuditLog log;
  const std::size_t disclosures = 1 + rng.next_below(5);
  for (std::size_t i = 0; i < disclosures; ++i) {
    log.record_with_answer(kUsers[rng.next_below(2)],
                           random_query_text(rng, names, 2), rng.next_bool());
  }

  // Offline reference: one Auditor over the whole log.
  AuditorOptions options;
  options.threads = 1;
  const Auditor auditor(universe, prior, options);
  const AuditReport report = auditor.audit(log, audit_query);

  // Online: the same log replayed through an AuditService session.
  service::ServiceOptions service_options;
  service_options.auditor = options;
  service_options.workers = 2;
  std::unique_ptr<service::AuditService> svc;
  const Status created = service::AuditService::try_create(
      universe, initial_state, audit_query, prior, service_options, &svc);
  if (!created.ok()) {
    out.push_back("AuditService::try_create rejected a well-formed "
                  "scenario: " + created.to_string() + "; audit query \"" +
                  audit_query + "\"");
    return;
  }

  auto mismatch = [&](const char* which, std::size_t index,
                      const AuditFinding& got, const AuditFinding& want) {
    if (got.verdict == want.verdict && got.method == want.method &&
        got.certified == want.certified && got.detail == want.detail) {
      return;
    }
    std::ostringstream os;
    os << which << " finding #" << index << " diverges from the offline "
       << "auditor under " << to_string(prior) << ": service=("
       << verdict_name(got.verdict) << ", " << got.method << ") offline=("
       << verdict_name(want.verdict) << ", " << want.method
       << "); audit query \"" << audit_query << "\"";
    out.push_back(os.str());
  };

  std::unordered_map<std::string, AuditFinding> last_cumulative;
  for (std::size_t i = 0; i < log.entries().size(); ++i) {
    const Disclosure& entry = log.entries()[i];
    service::AuditRequest request;
    request.user = entry.user;
    request.query_text = entry.query_text;
    request.answer = entry.answer;
    const service::AuditResponse response = svc->process(std::move(request));
    if (!response.status.ok()) {
      out.push_back("service rejected replayed disclosure #" +
                    std::to_string(i) + ": " + response.status.to_string());
      return;
    }
    mismatch("per-disclosure", i, response.disclosure,
             report.per_disclosure[i]);
    last_cumulative[entry.user] = response.cumulative;
  }

  // Prop. 3.10: the session's final cumulative verdict per user must equal
  // the offline per-user conjunction finding...
  for (const AuditFinding& want : report.per_user_cumulative) {
    mismatch("cumulative", 0, last_cumulative.at(want.user), want);
  }
  // ...and, structurally, deciding Safe(A, B1 cap ... cap Bk) directly.
  const WorldSet audit_set = parse_query(audit_query)->compile(universe);
  for (const char* user : kUsers) {
    const auto it = last_cumulative.find(user);
    if (it == last_cumulative.end()) continue;
    WorldSet acc = WorldSet::universe(n);
    for (const Disclosure& entry : log.entries()) {
      if (entry.user == user) acc &= entry.disclosed_set(universe);
    }
    const AuditFinding direct = auditor.audit_sets(audit_set, acc);
    if (direct.verdict != it->second.verdict) {
      out.push_back(std::string("cumulative verdict for ") + user +
                    " differs from a direct decision of the intersected "
                    "disclosures (Prop. 3.10); audit query \"" + audit_query +
                    "\"");
    }
  }

  // --- Every step against from-scratch decisions ---------------------------
  // The same service, its sessions reset (its memo stays warm), driven
  // through a random interleaving of disclose / reset_session / replay ops.
  // At every step the response must equal what DecisionEngine::decide
  // computes from scratch, on a context prepared the way the service
  // prepares its workers': the disclosure finding is Safe(A, B) for the
  // disclosed set B, the cumulative finding is Safe(A, S_k) for the
  // intersection S_k of the user's k disclosures since the last reset
  // (Def. 3.9 / Prop. 3.10), and the sequence number is k. This holds the
  // disclosure memo and the incremental session tiers to the cascade. The
  // `replay` op mirrors a router rebalance: reset the session, then re-send
  // the user's logged (query, answer) script, which must land on the same
  // verdicts again.
  for (const char* user : kUsers) svc->reset_session(user);
  const DecisionEngine& engine = auditor.engine();
  AuditContext reference_ctx;
  reference_ctx.reset_stages(engine.stage_names());
  if (prior == PriorAssumption::kSubcubeKnowledge) {
    reference_ctx.set_interval_oracle(auditor.shared_subcube_oracle());
    reference_ctx.prepare_subcube(audit_set);
  }
  struct Knowledge {
    WorldSet s;  ///< S_k
    std::uint64_t k = 0;
  };
  std::unordered_map<std::string, Knowledge> knowledge;

  auto check_step = [&](const char* op, std::size_t step,
                        const service::AuditRequest& request,
                        const service::AuditResponse& got) {
    if (!got.status.ok()) {
      out.push_back(std::string("service rejected a well-formed ") + op +
                    " request: " + got.status.to_string() +
                    "; audit query \"" + audit_query + "\"");
      return;
    }
    WorldSet b = parse_query(request.query_text)->compile(universe);
    if (!*request.answer) b = ~b;
    Knowledge& user =
        knowledge.try_emplace(request.user, Knowledge{WorldSet::universe(n)})
            .first->second;
    user.s &= b;
    ++user.k;
    const EngineDecision want_b = engine.decide(audit_set, b, reference_ctx);
    const EngineDecision want_s =
        engine.decide(audit_set, user.s, reference_ctx);
    auto same = [](const AuditFinding& f, const EngineDecision& d) {
      return f.verdict == d.verdict && f.method == d.method &&
             f.certified == d.certified && f.detail == d.detail &&
             f.numeric_gap == d.numeric_gap;
    };
    if (same(got.disclosure, want_b) && same(got.cumulative, want_s) &&
        got.sequence == user.k) {
      return;
    }
    std::ostringstream os;
    os << op << " step " << step << " under " << to_string(prior)
       << " diverges from from-scratch decisions: service=(disclosure "
       << verdict_name(got.disclosure.verdict) << ", " << got.disclosure.method
       << "; cum " << verdict_name(got.cumulative.verdict) << ", "
       << got.cumulative.method << "; seq " << got.sequence
       << ") reference=(disclosure " << verdict_name(want_b.verdict) << ", "
       << want_b.method << "; cum " << verdict_name(want_s.verdict) << ", "
       << want_s.method << "; seq " << user.k << "); audit query \""
       << audit_query << "\"";
    out.push_back(os.str());
  };

  // Every response field a client sees except the cache flag: concurrent
  // users race each other to fill the shared memo.
  auto same_response = [](const service::AuditResponse& x,
                          const service::AuditResponse& y) {
    auto finding_equal = [](const AuditFinding& f, const AuditFinding& g) {
      return f.user == g.user && f.query_text == g.query_text &&
             f.answer == g.answer && f.verdict == g.verdict &&
             f.method == g.method && f.certified == g.certified &&
             f.detail == g.detail && f.numeric_gap == g.numeric_gap;
    };
    return x.status.code() == y.status.code() && x.answer == y.answer &&
           x.denied == y.denied && x.sequence == y.sequence &&
           finding_equal(x.disclosure, y.disclosure) &&
           finding_equal(x.cumulative, y.cumulative);
  };

  // Every op in the order it ran, for the concurrent replay below: an audit
  // with its sequential response, or a reset (`reset` set, request.user).
  struct StreamOp {
    bool reset = false;
    service::AuditRequest request;
    service::AuditResponse response;
  };
  std::vector<StreamOp> stream;

  auto send = [&](const char* op, std::size_t step,
                  const service::AuditRequest& request) {
    service::AuditRequest copy = request;
    const service::AuditResponse response = svc->process(std::move(copy));
    check_step(op, step, request, response);
    stream.push_back({false, request, response});
    return response;
  };
  auto reset = [&](const std::string& user) {
    svc->reset_session(user);
    knowledge.erase(user);
    service::AuditRequest request;
    request.user = user;
    stream.push_back({true, std::move(request), {}});
  };

  std::unordered_map<std::string, std::vector<std::pair<std::string, bool>>>
      scripts;
  const std::size_t ops = 3 + rng.next_below(6);
  for (std::size_t step = 0; step < ops; ++step) {
    const std::string user = kUsers[rng.next_below(2)];
    const std::uint64_t kind = rng.next_below(8);
    if (kind < 5) {
      // Disclose: replayed-log mode with a random recorded answer. Repeats
      // of earlier queries are likely at this query size, exercising memo
      // hits and the unchanged-S fast path.
      service::AuditRequest request;
      request.user = user;
      request.query_text = random_query_text(rng, names, 2);
      request.answer = rng.next_bool();
      const service::AuditResponse response = send("disclose", step, request);
      if (response.status.ok()) {
        scripts[user].emplace_back(request.query_text, *request.answer);
      }
    } else if (kind < 6) {
      // Reset: the session forgets; incremental state must die with it.
      reset(user);
      scripts[user].clear();
    } else {
      // Replay: a rebalance in miniature — reset, then re-send the script.
      reset(user);
      const auto script = scripts[user];  // copy: send appends nothing
      for (std::size_t k = 0; k < script.size(); ++k) {
        service::AuditRequest request;
        request.user = user;
        request.query_text = script[k].first;
        request.answer = script[k].second;
        send("replay", step * 100 + k, request);
      }
    }
  }

  // Endgame: every user's cumulative verdict must equal a direct decision
  // of their surviving script's intersection (Prop. 3.10).
  for (const char* user : kUsers) {
    const auto it = scripts.find(user);
    if (it == scripts.end() || it->second.empty()) continue;
    WorldSet acc = WorldSet::universe(n);
    for (const auto& [query_text, answer] : it->second) {
      WorldSet satisfying = parse_query(query_text)->compile(universe);
      acc &= answer ? satisfying : ~satisfying;
    }
    const AuditFinding direct = auditor.audit_sets(audit_set, acc);
    service::AuditRequest probe;
    probe.user = user;
    probe.query_text = it->second.back().first;
    probe.answer = it->second.back().second;
    const service::AuditResponse last = send("endgame", 0, probe);
    if (last.status.ok() && direct.verdict != last.cumulative.verdict) {
      out.push_back(std::string("cumulative verdict for ") + user +
                    " differs from the direct Prop. 3.10 decision; audit "
                    "query \"" + audit_query + "\"");
    }
  }

  // --- Concurrent submission vs the sequential run --------------------------
  // The same op stream through 2-4 workers, every audit submitted without
  // waiting and every reset_session called inline between submissions: only
  // the service's per-user admission order keeps each user's sequence
  // numbers, cumulative verdicts and resets where the one-at-a-time run had
  // them. Then again with live requests (no answer) under the simulatable
  // online strategy, whose agent model is order-sensitive too.
  const unsigned workers = 2 + static_cast<unsigned>(rng.next_below(3));
  auto run_stream = [&](service::ServiceOptions run_options, bool live,
                        bool concurrent) {
    std::vector<service::AuditResponse> responses;
    std::unique_ptr<service::AuditService> run_svc;
    if (!service::AuditService::try_create(universe, initial_state, audit_query,
                                           prior, run_options, &run_svc)
             .ok()) {
      return responses;
    }
    std::vector<service::Ticket> tickets;
    for (const StreamOp& op : stream) {
      if (op.reset) {
        run_svc->reset_session(op.request.user);
        continue;
      }
      service::AuditRequest request = op.request;
      if (live) request.answer.reset();
      if (concurrent) {
        tickets.push_back(run_svc->submit(std::move(request)));
      } else {
        responses.push_back(run_svc->process(std::move(request)));
      }
    }
    for (service::Ticket& ticket : tickets) {
      responses.push_back(ticket.response.get());
    }
    return responses;
  };
  auto diff_runs = [&](const char* mode,
                       const std::vector<service::AuditResponse>& got,
                       const std::vector<service::AuditResponse>& want) {
    if (got.size() != want.size()) {
      out.push_back(std::string(mode) + " run with " +
                    std::to_string(workers) + " workers returned " +
                    std::to_string(got.size()) + " responses, want " +
                    std::to_string(want.size()));
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const service::AuditResponse& g = got[i];
      const service::AuditResponse& w = want[i];
      if (same_response(g, w)) continue;
      std::ostringstream os;
      os << mode << " submission with " << workers << " workers diverges "
         << "from the sequential run at audit #" << i << " (user "
         << g.disclosure.user << ") under " << to_string(prior)
         << ": got (seq " << g.sequence << ", cum "
         << verdict_name(g.cumulative.verdict) << ", " << g.cumulative.method
         << ") want (seq " << w.sequence << ", cum "
         << verdict_name(w.cumulative.verdict) << ", " << w.cumulative.method
         << "); audit query \"" << audit_query << "\"";
      out.push_back(os.str());
      return;
    }
  };
  std::vector<service::AuditResponse> sequential;
  for (const StreamOp& op : stream) {
    if (!op.reset) sequential.push_back(op.response);
  }
  service::ServiceOptions concurrent_options = service_options;
  concurrent_options.workers = workers;
  diff_runs("concurrent", run_stream(concurrent_options, false, true),
            sequential);
  service::ServiceOptions online_options = service_options;
  online_options.online_strategy = OnlineStrategy::kSimulatable;
  online_options.workers = 1;
  const std::vector<service::AuditResponse> online_sequential =
      run_stream(online_options, true, false);
  online_options.workers = workers;
  diff_runs("concurrent live online",
            run_stream(online_options, true, true), online_sequential);
}

// --- Check 8: fused-kernels -------------------------------------------------

void check_fused_kernels(Rng& rng, const ModelCheckOptions& opt,
                         Failures& out) {
  (void)opt;
  // Universe sizes straddle the 64-bit word boundary on the FiniteSet side.
  const std::size_t m = 1 + rng.next_below(80);
  const FiniteSet s = random_finite_set(rng, m);
  const FiniteSet fb = random_finite_set(rng, m);
  const FiniteSet fa = random_finite_set(rng, m);

  bool subset = true, inter_subset = true, disjoint = true, cover = true;
  std::size_t inter_count = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const bool in_s = s.contains(e), in_a = fa.contains(e),
               in_b = fb.contains(e);
    if (in_s && !in_a) subset = false;
    if (in_s && in_b && !in_a) inter_subset = false;
    if (in_s && in_b && in_a) disjoint = false;
    if (in_s && in_b) ++inter_count;
    if (!in_s && !in_b) cover = false;
  }
  if (s.subset_of(fa) != subset ||
      intersection_subset_of(s, fb, fa) != inter_subset ||
      intersection_count(s, fb) != inter_count ||
      intersection_disjoint(s, fb, fa) != disjoint ||
      union_is_universe(s, fb) != cover) {
    out.push_back("a FiniteSet fused kernel disagrees with the per-element "
                  "loop; m=" + std::to_string(m) + " S=" + s.to_string() +
                  " B=" + fb.to_string() + " A=" + fa.to_string());
  }

  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(6));
  const WorldSet ws = random_world_set(rng, n);
  const WorldSet wb = random_world_set(rng, n);
  const WorldSet wa = random_world_set(rng, n);
  bool w_inter_subset = true, w_cover = true;
  std::size_t w_count = 0;
  for (std::size_t w = 0; w < ws.omega_size(); ++w) {
    const World world = static_cast<World>(w);
    const bool in_s = ws.contains(world), in_a = wa.contains(world),
               in_b = wb.contains(world);
    if (in_s && in_b && !in_a) w_inter_subset = false;
    if (in_s && in_b) ++w_count;
    if (!in_s && !in_b) w_cover = false;
  }
  if (intersection_subset_of(ws, wb, wa) != w_inter_subset ||
      intersection_count(ws, wb) != w_count ||
      union_is_universe(ws, wb) != w_cover) {
    out.push_back("a WorldSet fused kernel disagrees with the per-element "
                  "loop; " + pair_text(ws, wb));
  }

  // ISA-tier parity: every SIMD table available on this host must return
  // bit-identical verdicts and counts to the scalar reference. Word counts
  // are drawn past the dispatch threshold and off the 4-word block boundary
  // so the vector main loop and the scalar tail both run.
  {
    const std::size_t nw = bits::kIsaDispatchWords + rng.next_below(16);
    const std::size_t bits_m = nw * bits::kWordBits - rng.next_below(bits::kWordBits);
    std::vector<bits::Word> xs(nw), ys(nw), zs(nw);
    for (std::size_t i = 0; i < nw; ++i) {
      // Mix dense, sparse and zero words so the early-exit branches and the
      // all-ones universe path all trigger.
      const auto word = [&rng]() -> bits::Word {
        switch (rng.next_below(4)) {
          case 0: return 0;
          case 1: return ~bits::Word{0};
          case 2: return rng.next_u64() & rng.next_u64() & rng.next_u64();
          default: return rng.next_u64();
        }
      };
      xs[i] = word();
      ys[i] = word();
      zs[i] = word();
    }
    const bits::Word tail = bits::tail_mask(bits_m);
    xs[nw - 1] &= tail;
    ys[nw - 1] &= tail;
    zs[nw - 1] &= tail;

    const bits::Isa* ref = bits::isa_for(bits::IsaTier::kScalar);
    for (bits::IsaTier tier : {bits::IsaTier::kScalar, bits::IsaTier::kAvx2}) {
      const bits::Isa* isa = bits::isa_for(tier);
      if (isa == nullptr) continue;  // tier not runnable on this host
      const bool ok =
          isa->count(xs.data(), nw) == ref->count(xs.data(), nw) &&
          isa->subset_of(xs.data(), ys.data(), nw) ==
              ref->subset_of(xs.data(), ys.data(), nw) &&
          isa->disjoint(xs.data(), ys.data(), nw) ==
              ref->disjoint(xs.data(), ys.data(), nw) &&
          isa->intersection_subset_of(xs.data(), ys.data(), zs.data(), nw) ==
              ref->intersection_subset_of(xs.data(), ys.data(), zs.data(), nw) &&
          isa->intersection_count(xs.data(), ys.data(), nw) ==
              ref->intersection_count(xs.data(), ys.data(), nw) &&
          isa->intersection3_empty(xs.data(), ys.data(), zs.data(), nw) ==
              ref->intersection3_empty(xs.data(), ys.data(), zs.data(), nw) &&
          isa->union_is_universe(xs.data(), ys.data(), nw, bits_m) ==
              ref->union_is_universe(xs.data(), ys.data(), nw, bits_m);
      if (!ok) {
        out.push_back(std::string("ISA tier ") + isa->name +
                      " disagrees with the scalar reference on a fused "
                      "kernel; nw=" + std::to_string(nw) +
                      " m=" + std::to_string(bits_m));
      }
    }
  }
}

void check_backend_parity(Rng& rng, const ModelCheckOptions& opt,
                          Failures& out) {
  // The symbolic subcube-cover backend must be observationally identical to
  // the dense bitset backend: same set algebra, same fused predicates, same
  // engine verdicts (method and detail strings included — the auditor's
  // reports must not depend on the representation).
  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(opt.max_n));
  const WorldSet a = random_world_set(rng, n);
  const WorldSet b = random_world_set(rng, n);
  const WorldSet c = random_world_set(rng, n);
  const WorldSet sa = a.symbolized();
  const WorldSet sb = b.symbolized();
  const WorldSet sc = c.symbolized();

  if (sa.densified() != a || sb.densified() != b) {
    out.push_back("dense -> symbolic -> dense round-trip lost worlds; " +
                  pair_text(a, b));
    return;
  }
  if (sa.count() != a.count() || sa.is_empty() != a.is_empty() ||
      sa.is_universe() != a.is_universe() ||
      (!a.is_empty() && sa.min_world() != a.min_world())) {
    out.push_back("symbolic cardinality/extrema disagree with dense; " +
                  pair_text(a, b));
    return;
  }
  if ((sa & sb) != (a & b) || (sa | sb) != (a | b) || (sa - sb) != (a - b) ||
      (sa ^ sb) != (a ^ b) || ~sa != ~a) {
    out.push_back("symbolic Boolean algebra disagrees with dense; " +
                  pair_text(a, b));
    return;
  }
  if (sa.subset_of(sb) != a.subset_of(b) ||
      sa.disjoint_with(sb) != a.disjoint_with(b) || (sa == sb) != (a == b)) {
    out.push_back("symbolic comparisons disagree with dense; " + pair_text(a, b));
    return;
  }
  if (intersection_subset_of(sa, sb, sc) != intersection_subset_of(a, b, c) ||
      intersection_count(sa, sb) != intersection_count(a, b) ||
      intersection3_empty(sa, sb, sc) != intersection3_empty(a, b, c) ||
      union_is_universe(sa, sb) != union_is_universe(a, b)) {
    out.push_back("a fused predicate disagrees across backends; " +
                  pair_text(a, b));
    return;
  }
  if (sa.hash() != (a.symbolized()).hash() ||
      sa.hash() != WorldSet::from_cover(sa.cover()).hash()) {
    out.push_back("symbolic hash not stable across copies; " + pair_text(a, b));
    return;
  }

  // Engine parity: one prior per case, like check_engine_parity. Every
  // prior accepts symbolic inputs (non-unrestricted ones densify at this n).
  static constexpr PriorAssumption kPriors[] = {
      PriorAssumption::kUnrestricted, PriorAssumption::kProduct,
      PriorAssumption::kLogSupermodular, PriorAssumption::kSubcubeKnowledge};
  const PriorAssumption prior = kPriors[rng.next_below(4)];
  const Auditor auditor(make_universe(n), prior);
  const AuditFinding dense = auditor.audit_sets(a, b);
  const AuditFinding symbolic = auditor.audit_sets(sa, sb);
  if (dense.verdict != symbolic.verdict || dense.method != symbolic.method ||
      dense.certified != symbolic.certified ||
      dense.detail != symbolic.detail) {
    out.push_back(
        "engine (" + to_string(prior) + ") verdicts diverge across backends: "
        "dense " + verdict_name(dense.verdict) + "/" + dense.method +
        " [" + dense.detail + "] vs symbolic " +
        verdict_name(symbolic.verdict) + "/" + symbolic.method + " [" +
        symbolic.detail + "]; " + pair_text(a, b));
  }
}

// --- Check 10: workload-parity ----------------------------------------------
// Every registered workload family, generated at sweep-friendly sizes, must
// (a) regenerate byte-identically from the same options, (b) satisfy its own
// declared shape, and (c) replay through AuditService incremental sessions
// onto findings byte-identical to the offline Auditor over the same log —
// the named-family analogue of check_service_composition, run on traffic the
// engine was NOT tuned on.

void check_workload_parity(Rng& rng, const ModelCheckOptions& opt,
                           Failures& out) {
  (void)opt;
  const std::vector<const workloads::WorkloadFamily*>& families =
      workloads::all_families();
  const workloads::WorkloadFamily& family =
      *families[rng.next_below(families.size())];

  workloads::FamilyOptions family_options;
  family_options.seed = rng.next_u64();
  family_options.requests = 3 + static_cast<unsigned>(rng.next_below(8));
  family_options.users = 1 + static_cast<unsigned>(rng.next_below(3));
  if (family.name() == "policy") {
    family_options.records = 3 + static_cast<unsigned>(rng.next_below(6));
    family_options.requests += 4;  // longer sessions are the family's point
  } else if (family.name() == "collusion") {
    family_options.records = 4 + static_cast<unsigned>(rng.next_below(5));
    family_options.users = 2 + static_cast<unsigned>(rng.next_below(2));
    family_options.requests = std::max(4u, family_options.requests);
  } else if (family.name() == "rectangles") {
    // Mostly small dense grids; one case in eight crosses the dense wall so
    // the symbolic service path sees family traffic too.
    static constexpr unsigned kDenseCells[] = {4, 6, 8, 9, 10, 12};
    family_options.records =
        rng.next_below(8) == 0
            ? 27 + static_cast<unsigned>(rng.next_below(6))
            : kDenseCells[rng.next_below(6)];
  } else {
    family_options.records = 3 + static_cast<unsigned>(rng.next_below(4));
  }

  const std::string tag = "family '" + std::string(family.name()) +
                          "' (seed " + std::to_string(family_options.seed) +
                          ", records " + std::to_string(family_options.records) +
                          ", requests " +
                          std::to_string(family_options.requests) + ", users " +
                          std::to_string(family_options.users) + ")";

  workloads::GeneratedWorkload workload;
  if (Status generated = family.generate(family_options, &workload);
      !generated.ok()) {
    out.push_back(tag + " failed to generate: " + generated.to_string());
    return;
  }
  if (Status valid = workloads::validate_workload(family, workload);
      !valid.ok()) {
    out.push_back(tag + " violates its declared shape: " + valid.to_string());
    return;
  }

  // Determinism: the same options must reproduce the instance byte for byte.
  workloads::GeneratedWorkload again;
  if (!family.generate(family_options, &again).ok() ||
      again.initial_state != workload.initial_state ||
      again.universe.names() != workload.universe.names() ||
      again.audit_queries != workload.audit_queries ||
      again.stream.size() != workload.stream.size()) {
    out.push_back(tag + " is not deterministic (scenario drifted)");
    return;
  }
  for (std::size_t i = 0; i < workload.stream.size(); ++i) {
    if (again.stream[i].user != workload.stream[i].user ||
        again.stream[i].query_text != workload.stream[i].query_text ||
        again.stream[i].answer != workload.stream[i].answer) {
      out.push_back(tag + " is not deterministic (stream entry #" +
                    std::to_string(i) + " drifted)");
      return;
    }
  }

  // Offline reference: one batch audit of the whole log.
  AuditorOptions auditor_options;
  auditor_options.threads = 1;
  const Auditor auditor(workload.universe, workload.prior, auditor_options);
  const AuditLog log = workload.to_log();
  const std::size_t audits = std::min<std::size_t>(2, workload.audit_queries.size());
  const std::span<const std::string> audit_queries(workload.audit_queries.data(),
                                                   audits);
  std::vector<AuditReport> reports;
  if (Status audited = auditor.try_audit_many(log, audit_queries, &reports);
      !audited.ok()) {
    out.push_back(tag + " offline audit failed: " + audited.to_string());
    return;
  }

  // Service replay, one incremental-session service per audited property.
  for (std::size_t a = 0; a < audits; ++a) {
    service::ServiceOptions service_options;
    service_options.auditor = auditor_options;
    service_options.workers = 2;
    std::unique_ptr<service::AuditService> svc;
    if (Status created = service::AuditService::try_create(
            workload.universe, workload.initial_state,
            workload.audit_queries[a], workload.prior, service_options, &svc);
        !created.ok()) {
      out.push_back(tag + ": AuditService::try_create rejected audit query \"" +
                    workload.audit_queries[a] + "\": " + created.to_string());
      return;
    }
    const AuditReport& report = reports[a];
    auto mismatch = [&](const char* which, std::size_t index,
                        const AuditFinding& got, const AuditFinding& want) {
      if (got.verdict == want.verdict && got.method == want.method &&
          got.certified == want.certified && got.detail == want.detail) {
        return;
      }
      std::ostringstream os;
      os << tag << ": " << which << " finding #" << index
         << " diverges from the offline auditor under "
         << to_string(workload.prior) << ": service=("
         << verdict_name(got.verdict) << ", " << got.method << ") offline=("
         << verdict_name(want.verdict) << ", " << want.method
         << "); audit query \"" << workload.audit_queries[a] << "\"";
      out.push_back(os.str());
    };

    std::unordered_map<std::string, AuditFinding> last_cumulative;
    for (std::size_t i = 0; i < workload.stream.size(); ++i) {
      const workloads::StreamRequest& entry = workload.stream[i];
      service::AuditRequest request;
      request.user = entry.user;
      request.query_text = entry.query_text;
      request.answer = entry.answer;
      const service::AuditResponse response = svc->process(std::move(request));
      if (!response.status.ok()) {
        out.push_back(tag + ": service rejected replayed request #" +
                      std::to_string(i) + ": " + response.status.to_string());
        return;
      }
      mismatch("per-disclosure", i, response.disclosure,
               report.per_disclosure[i]);
      last_cumulative[entry.user] = response.cumulative;
    }
    for (const AuditFinding& want : report.per_user_cumulative) {
      mismatch("cumulative", 0, last_cumulative.at(want.user), want);
    }
  }
}

// --- Driver -----------------------------------------------------------------

struct Check {
  const char* name;
  void (*fn)(Rng&, const ModelCheckOptions&, Failures&);
};

constexpr Check kChecks[] = {
    {"possibilistic-unrestricted", check_possibilistic_unrestricted},
    {"probabilistic-unrestricted", check_probabilistic_unrestricted},
    {"sigma-intervals", check_sigma_intervals},
    {"product-cascade", check_product_cascade},
    {"supermodular-cascade", check_supermodular_cascade},
    {"engine-parity", check_engine_parity},
    {"service-composition", check_service_composition},
    {"fused-kernels", check_fused_kernels},
    {"backend-parity", check_backend_parity},
    {"workload-parity", check_workload_parity},
};

}  // namespace

std::vector<std::string> check_names() {
  std::vector<std::string> names;
  for (const Check& c : kChecks) names.emplace_back(c.name);
  return names;
}

ModelCheckReport run_model_check(const ModelCheckOptions& options,
                                 std::ostream* progress) {
  ModelCheckReport report;
  for (const Check& check : kChecks) {
    if (!options.only_check.empty() && options.only_check != check.name) {
      continue;
    }
    CheckSummary summary;
    summary.name = check.name;
    const std::uint64_t first = options.only_case.value_or(0);
    const std::uint64_t last =
        options.only_case ? *options.only_case + 1 : options.cases_per_check;
    for (std::uint64_t i = first; i < last; ++i) {
      Rng rng = case_rng(options.seed, check.name, i);
      Failures failures;
      check.fn(rng, options, failures);
      ++summary.cases;
      for (std::string& description : failures) {
        ++summary.failures;
        CheckFailure failure;
        failure.check = check.name;
        failure.case_index = i;
        failure.description =
            std::move(description) + "; repro: epi_modelcheck --seed=" +
            std::to_string(options.seed) + " --check=" + check.name +
            " --case=" + std::to_string(i);
        report.failures.push_back(std::move(failure));
      }
      if (summary.failures >= options.max_failures_per_check) break;
    }
    report.total_cases += summary.cases;
    if (progress) {
      *progress << check.name << ": " << summary.cases << " cases, "
                << summary.failures << " failures" << std::endl;
    }
    report.summaries.push_back(std::move(summary));
  }
  return report;
}

}  // namespace testing
}  // namespace epi
