#include "possibilistic/intervals.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace epi {
namespace {

/// Process-wide oracle counters: one lookup per interval() call, one cache
/// hit when the memo short-circuits the sigma-family computation. Resolved
/// once; hot-path cost is a relaxed atomic add.
obs::Counter& interval_lookups() {
  static obs::Counter& counter =
      obs::process_metrics().counter("oracle.interval.lookups");
  return counter;
}

obs::Counter& interval_cache_hits() {
  static obs::Counter& counter =
      obs::process_metrics().counter("oracle.interval.cache_hits");
  return counter;
}

}  // namespace

IntervalOracle::IntervalOracle(std::shared_ptr<const SigmaFamily> sigma, FiniteSet c)
    : sigma_(std::move(sigma)), c_(std::move(c)) {
  if (!sigma_) throw std::invalid_argument("IntervalOracle: null family");
  if (sigma_->universe_size() != c_.universe_size()) {
    throw std::invalid_argument("IntervalOracle: mismatched universes");
  }
  if (!sigma_->is_intersection_closed()) {
    throw std::invalid_argument("IntervalOracle: family is not intersection-closed");
  }
}

std::optional<FiniteSet> IntervalOracle::interval(std::size_t w1, std::size_t w2) const {
  // Condition (14): w1 must be a possible world for the auditor (w1 in C) —
  // otherwise no pair (w1, S) belongs to K = C (x) Sigma.
  if (!c_.contains(w1)) return std::nullopt;
  interval_lookups().add(1);
  const std::size_t key = w1 * c_.universe_size() + w2;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      interval_cache_hits().add(1);
      return it->second;
    }
  }
  // Compute outside the lock — a racing duplicate computation is benign and
  // cheaper than serializing every sigma interval query.
  std::optional<FiniteSet> result = sigma_->interval(w1, w2);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.emplace(key, result);
  return result;
}

std::vector<FiniteSet> IntervalOracle::minimal_intervals(std::size_t w1,
                                                         const FiniteSet& x) const {
  std::vector<FiniteSet> result;
  x.visit([&](std::size_t w2) {
    std::optional<FiniteSet> iv = interval(w1, w2);
    if (!iv) return;
    // Definition 4.7: minimal iff every x-world inside the interval induces
    // the very same interval. Fused scan over iv ∩ x — no materialized set.
    bool minimal = true;
    visit_intersection(*iv, x, [&](std::size_t w2p) {
      if (!minimal) return;
      std::optional<FiniteSet> ivp = interval(w1, w2p);
      if (!ivp || *ivp != *iv) minimal = false;
    });
    if (!minimal) return;
    for (const FiniteSet& seen : result) {
      if (seen == *iv) return;  // dedupe
    }
    result.push_back(std::move(*iv));
  });
  return result;
}

std::vector<FiniteSet> IntervalOracle::delta_partition(const FiniteSet& x,
                                                       std::size_t w1) const {
  std::vector<FiniteSet> classes;
  // Condition (14): without w1 in C no pair (w1, S) is in K, so no interval
  // starts at w1.
  if (!c_.contains(w1)) return classes;
  if (std::optional<std::vector<std::size_t>> singletons =
          sigma_->tight_delta_classes(w1, x)) {
    classes.reserve(singletons->size());
    for (const std::size_t w2 : *singletons) {
      classes.push_back(FiniteSet::singleton(x.universe_size(), w2));
    }
    return classes;
  }
  for (const FiniteSet& iv : minimal_intervals(w1, x)) {
    classes.push_back(iv & x);
  }
  return classes;
}

bool IntervalOracle::has_tight_intervals() const {
  const std::size_t m = c_.universe_size();
  for (std::size_t w1 = 0; w1 < m; ++w1) {
    if (!c_.contains(w1)) continue;
    for (std::size_t w2 = 0; w2 < m; ++w2) {
      std::optional<FiniteSet> iv = interval(w1, w2);
      if (!iv) continue;
      bool tight = true;
      iv->visit([&](std::size_t w2p) {
        if (!tight || w2p == w2) return;
        std::optional<FiniteSet> ivp = interval(w1, w2p);
        // ivp exists because w2p lies in a family member containing w1.
        if (!ivp || !(ivp->subset_of(*iv) && *ivp != *iv)) tight = false;
      });
      if (!tight) return false;
    }
  }
  return true;
}

bool IntervalOracle::safe_all_intervals(const FiniteSet& a, const FiniteSet& b) const {
  const FiniteSet outside_a = ~a;
  const FiniteSet b_minus_a = b - a;
  bool safe = true;
  visit_intersection(a, b, [&](std::size_t w1) {
    if (!safe) return;
    outside_a.visit([&](std::size_t w2) {
      if (!safe) return;
      std::optional<FiniteSet> iv = interval(w1, w2);
      if (iv && iv->disjoint_with(b_minus_a)) safe = false;
    });
  });
  return safe;
}

bool IntervalOracle::safe_minimal_intervals(const FiniteSet& a,
                                            const FiniteSet& b) const {
  obs::ScopedSpan span("oracle.safe-minimal-intervals");
  const FiniteSet outside_a = ~a;
  bool safe = true;
  visit_intersection(a, b, [&](std::size_t w1) {
    if (!safe) return;
    // A minimal interval I misses B − A iff its class I ∩ (Ω − A) misses B.
    for (const FiniteSet& cls : delta_partition(outside_a, w1)) {
      if (cls.disjoint_with(b)) {
        safe = false;
        return;
      }
    }
  });
  return safe;
}

std::optional<std::vector<FiniteSet>> IntervalOracle::beta(const FiniteSet& a) const {
  if (!has_tight_intervals()) return std::nullopt;
  const std::size_t m = c_.universe_size();
  const FiniteSet outside_a = ~a;
  std::vector<FiniteSet> result(m, FiniteSet(m));
  a.visit([&](std::size_t w1) {
    // With tight intervals every Delta class is a singleton (Cor. 4.14), so
    // beta(w1) is simply the union of the classes.
    for (const FiniteSet& cls : delta_partition(outside_a, w1)) {
      result[w1] |= cls;
    }
  });
  return result;
}

IntervalOracle::PreparedAudit IntervalOracle::prepare(const FiniteSet& a) const {
  obs::ScopedSpan span("oracle.prepare");
  PreparedAudit audit(a);
  const std::size_t m = c_.universe_size();
  const FiniteSet outside_a = ~a;
  audit.classes_.assign(m, {});
  a.visit([&](std::size_t w1) {
    audit.classes_[w1] = delta_partition(outside_a, w1);
  });
  if (span.live()) {
    span.attr("classes", std::to_string(audit.class_count()));
  }
  return audit;
}

bool IntervalOracle::PreparedAudit::safe(const FiniteSet& b) const {
  obs::ScopedSpan span("oracle.prepared-safe");
  bool result = true;
  visit_intersection(a_, b, [&](std::size_t w1) {
    if (!result) return;
    for (const FiniteSet& cls : classes_[w1]) {
      if (cls.disjoint_with(b)) {
        result = false;
        return;
      }
    }
  });
  return result;
}

std::size_t IntervalOracle::PreparedAudit::class_count() const {
  std::size_t total = 0;
  for (const auto& per_world : classes_) total += per_world.size();
  return total;
}

IntervalOracle::IncrementalSafe::IncrementalSafe(
    std::shared_ptr<const PreparedAudit> prepared)
    : prepared_(std::move(prepared)) {
  if (!prepared_) {
    throw std::invalid_argument("IncrementalSafe: null prepared audit");
  }
  const FiniteSet& a = prepared_->audit_set();
  const std::size_t m = a.universe_size();
  first_class_.assign(m, 0);
  class_count_.assign(m, 0);
  inverted_.assign(m, {});
  a.visit([&](std::size_t w1) {
    first_class_[w1] = owner_.size();
    const std::vector<FiniteSet>& classes = prepared_->classes(w1);
    class_count_[w1] = classes.size();
    for (const FiniteSet& cls : classes) {
      const std::size_t c = owner_.size();
      owner_.push_back(w1);
      cls.visit([&](std::size_t e) {
        inverted_[e].push_back(static_cast<std::uint32_t>(c));
      });
    }
  });
}

void IntervalOracle::IncrementalSafe::reset(const FiniteSet& s) {
  const FiniteSet& a = prepared_->audit_set();
  if (s.universe_size() != a.universe_size()) {
    throw std::invalid_argument("IncrementalSafe: mismatched universes");
  }
  counts_.assign(owner_.size(), 0);
  zero_classes_.assign(a.universe_size(), 0);
  active_.assign(a.universe_size(), 0);
  active_count_ = 0;
  violating_ = 0;
  a.visit([&](std::size_t w1) {
    if (s.contains(w1)) {
      active_[w1] = 1;
      ++active_count_;
    }
    const std::vector<FiniteSet>& classes = prepared_->classes(w1);
    for (std::size_t k = 0; k < classes.size(); ++k) {
      const std::size_t c = first_class_[w1] + k;
      counts_[c] = intersection_count(classes[k], s);
      if (counts_[c] == 0) ++zero_classes_[w1];
    }
    if (active_[w1] && zero_classes_[w1] > 0) ++violating_;
  });
  current_ = s;
}

bool IntervalOracle::IncrementalSafe::shrink_to(const FiniteSet& s) {
  if (!current_ || !s.subset_of(*current_)) return false;
  if (s == *current_) return true;
  const FiniteSet& a = prepared_->audit_set();
  const FiniteSet removed = *current_ - s;
  removed.visit([&](std::size_t e) {
    // e left S. Delta classes live in Omega − A and activity tracks A ∩ S,
    // so exactly one of the two branches applies.
    if (a.contains(e)) {
      if (active_[e]) {
        active_[e] = 0;
        --active_count_;
        if (zero_classes_[e] > 0) --violating_;
      }
      return;
    }
    for (const std::uint32_t c : inverted_[e]) {
      if (--counts_[c] == 0) {
        const std::size_t w1 = owner_[c];
        if (++zero_classes_[w1] == 1 && active_[w1]) ++violating_;
      }
    }
  });
  current_ = s;
  return true;
}

}  // namespace epi
