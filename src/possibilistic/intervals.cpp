#include "possibilistic/intervals.h"

#include <algorithm>
#include <bit>
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

const IntervalOracle::PreparedAudit& non_null(
    const std::shared_ptr<const IntervalOracle::PreparedAudit>& prepared) {
  if (!prepared) {
    throw std::invalid_argument("IncrementalSafe: null prepared audit");
  }
  return *prepared;
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

void IntervalOracle::append_delta_classes(
    const FiniteSet& x, std::size_t w1, std::vector<std::uint32_t>& worlds,
    std::vector<std::uint32_t>& offsets) const {
  // Condition (14): without w1 in C no pair (w1, S) is in K, so no interval
  // starts at w1.
  if (!c_.contains(w1)) return;
  auto close_class = [&] {
    offsets.push_back(static_cast<std::uint32_t>(worlds.size()));
  };
  if (std::optional<std::vector<std::size_t>> singletons =
          sigma_->tight_delta_classes(w1, x)) {
    for (const std::size_t w2 : *singletons) {
      worlds.push_back(static_cast<std::uint32_t>(w2));
      close_class();
    }
    return;
  }
  for (const FiniteSet& iv : minimal_intervals(w1, x)) {
    visit_intersection(iv, x, [&](std::size_t w2) {
      worlds.push_back(static_cast<std::uint32_t>(w2));
    });
    close_class();
  }
}

std::vector<FiniteSet> IntervalOracle::delta_partition(const FiniteSet& x,
                                                       std::size_t w1) const {
  std::vector<std::uint32_t> worlds;
  std::vector<std::uint32_t> offsets{0};
  append_delta_classes(x, w1, worlds, offsets);
  std::vector<FiniteSet> classes;
  classes.reserve(offsets.size() - 1);
  for (std::size_t k = 0; k + 1 < offsets.size(); ++k) {
    FiniteSet& cls = classes.emplace_back(x.universe_size());
    for (std::uint32_t i = offsets[k]; i < offsets[k + 1]; ++i) {
      cls.insert(worlds[i]);
    }
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
  const std::size_t m = c_.universe_size();
  if (a.universe_size() != m) {
    throw std::invalid_argument("IntervalOracle::prepare: mismatched universes");
  }
  PreparedAudit audit(a);
  const FiniteSet outside_a = ~a;
  audit.world_offsets_.assign(m + 1, 0);
  audit.class_offsets_.assign(1, 0);
  for (std::size_t w1 = 0; w1 < m; ++w1) {
    if (a.contains(w1)) {
      append_delta_classes(outside_a, w1, audit.class_worlds_,
                           audit.class_offsets_);
      audit.class_owners_.resize(audit.class_offsets_.size() - 1,
                                 static_cast<std::uint32_t>(w1));
    }
    audit.world_offsets_[w1 + 1] =
        static_cast<std::uint32_t>(audit.class_owners_.size());
  }
  // The inverted index by counting sort: per world, the classes holding it,
  // in ascending class id.
  audit.containing_offsets_.assign(m + 1, 0);
  for (const std::uint32_t e : audit.class_worlds_) {
    ++audit.containing_offsets_[e + 1];
  }
  for (std::size_t e = 0; e < m; ++e) {
    audit.containing_offsets_[e + 1] += audit.containing_offsets_[e];
  }
  audit.containing_.resize(audit.class_worlds_.size());
  std::vector<std::uint32_t> next(audit.containing_offsets_.begin(),
                                  audit.containing_offsets_.end() - 1);
  for (std::uint32_t c = 0; c < audit.class_count(); ++c) {
    for (const std::uint32_t e : audit.class_worlds(c)) {
      audit.containing_[next[e]++] = c;
    }
  }
  if (span.live()) {
    span.attr("classes", std::to_string(audit.class_count()));
  }
  return audit;
}

bool IntervalOracle::PreparedAudit::safe(const FiniteSet& b) const {
  obs::ScopedSpan span("oracle.prepared-safe");
  if (b.universe_size() != a_.universe_size()) {
    throw std::invalid_argument("PreparedAudit::safe: mismatched universes");
  }
  // A word loop over A ∩ B rather than visit_intersection, whose callback
  // cannot stop the scan at the first class B misses.
  const std::uint64_t* a_words = a_.word_data();
  const std::uint64_t* b_words = b.word_data();
  auto in_b = [&](std::uint32_t e) { return b.contains(e); };
  for (std::size_t j = 0; j < a_.word_count(); ++j) {
    for (std::uint64_t both = a_words[j] & b_words[j]; both != 0;
         both &= both - 1) {
      const std::size_t w1 = j * bits::kWordBits + std::countr_zero(both);
      const auto [first, last] = class_range(w1);
      for (std::uint32_t c = first; c < last; ++c) {
        if (std::ranges::none_of(class_worlds(c), in_b)) return false;
      }
    }
  }
  return true;
}

IntervalOracle::IncrementalSafe::IncrementalSafe(
    std::shared_ptr<const PreparedAudit> prepared)
    : prepared_(std::move(prepared)),
      missed_(non_null(prepared_).audit_set().universe_size()) {}

void IntervalOracle::IncrementalSafe::reset(const FiniteSet& s) {
  const PreparedAudit& prepared = *prepared_;
  const FiniteSet& a = prepared.audit_set();
  if (s.universe_size() != a.universe_size()) {
    throw std::invalid_argument("IncrementalSafe: mismatched universes");
  }
  counts_.assign(prepared.singleton_classes() ? 0 : prepared.class_count(), 0);
  missed_ = FiniteSet(a.universe_size());
  for (std::uint32_t c = 0; c < prepared.class_count(); ++c) {
    const auto count = static_cast<std::uint32_t>(std::ranges::count_if(
        prepared.class_worlds(c), [&](std::uint32_t e) { return s.contains(e); }));
    if (!counts_.empty()) counts_[c] = count;
    if (count == 0) missed_.insert(prepared.class_owner(c));
  }
  active_count_ = intersection_count(a, s);
  violating_ = intersection_count(missed_, s);  // missed_ ⊆ A
  current_ = s;
}

bool IntervalOracle::IncrementalSafe::shrink_to(const FiniteSet& s) {
  if (!current_ || !s.subset_of(*current_)) return false;
  const PreparedAudit& prepared = *prepared_;
  const std::uint64_t* before = current_->word_data();
  const std::uint64_t* after = s.word_data();
  const std::uint64_t* in_a = prepared.audit_set().word_data();
  // Visits the worlds leaving S, either those of A or those outside it,
  // without materializing current − s.
  auto visit_removed = [&](bool of_a, auto&& fn) {
    for (std::size_t j = 0; j < s.word_count(); ++j) {
      const std::uint64_t removed =
          before[j] & ~after[j] & (of_a ? in_a[j] : ~in_a[j]);
      bits::for_each_bit(&removed, 1, [&](std::size_t bit) {
        fn(j * bits::kWordBits + bit);
      });
    }
  };
  // Worlds of A leave first, so the class pass below sees A ∩ s as the
  // active set. No class contains a world of A.
  visit_removed(true, [&](std::size_t w1) {
    --active_count_;
    if (missed_.contains(w1)) --violating_;
  });
  visit_removed(false, [&](std::size_t e) {
    for (const std::uint32_t c : prepared.classes_containing(e)) {
      if (!counts_.empty() && --counts_[c] != 0) continue;
      const std::uint32_t w1 = prepared.class_owner(c);
      if (missed_.contains(w1)) continue;
      missed_.insert(w1);
      if (s.contains(w1)) ++violating_;
    }
  });
  current_ = s;
  return true;
}

}  // namespace epi
