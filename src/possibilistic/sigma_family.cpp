#include "possibilistic/sigma_family.h"

#include <stdexcept>

namespace epi {

ExplicitSigma::ExplicitSigma(std::vector<FiniteSet> sets) : sets_(std::move(sets)) {
  if (sets_.empty()) throw std::invalid_argument("ExplicitSigma: empty family");
  m_ = sets_.front().universe_size();
  for (const auto& s : sets_) {
    if (s.universe_size() != m_) {
      throw std::invalid_argument("ExplicitSigma: mismatched universes");
    }
  }
  members_.insert(sets_.begin(), sets_.end());
}

bool ExplicitSigma::contains(const FiniteSet& s) const {
  return members_.contains(s);
}

bool ExplicitSigma::is_intersection_closed() const {
  for (std::size_t i = 0; i < sets_.size(); ++i) {
    for (std::size_t j = i + 1; j < sets_.size(); ++j) {
      // Only pairs sharing a world matter for K; the fused disjointness scan
      // rejects them before allocating the intersection.
      if (sets_[i].disjoint_with(sets_[j])) continue;
      if (!contains(sets_[i] & sets_[j])) return false;
    }
  }
  return true;
}

std::optional<FiniteSet> ExplicitSigma::interval(std::size_t w1, std::size_t w2) const {
  std::optional<FiniteSet> result;
  for (const auto& s : sets_) {
    if (!s.contains(w1) || !s.contains(w2)) continue;
    if (!result) {
      result = s;
    } else {
      *result &= s;
    }
  }
  return result;
}

ExplicitSigma ExplicitSigma::intersection_closure() const {
  std::vector<FiniteSet> closed = sets_;
  std::unordered_set<FiniteSet, FiniteSetHash> seen = members_;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::size_t count = closed.size();
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (closed[i].disjoint_with(closed[j])) continue;
        FiniteSet inter = closed[i] & closed[j];
        if (seen.insert(inter).second) {
          closed.push_back(std::move(inter));
          changed = true;
        }
      }
    }
  }
  return ExplicitSigma(std::move(closed));
}

bool PowerSetSigma::contains(const FiniteSet& s) const {
  return s.universe_size() == m_;
}

std::vector<FiniteSet> PowerSetSigma::enumerate() const {
  if (m_ > 20) throw std::length_error("PowerSetSigma::enumerate: m too large");
  std::vector<FiniteSet> sets;
  const std::size_t subsets = std::size_t{1} << m_;
  sets.reserve(subsets - 1);
  for (std::size_t mask = 1; mask < subsets; ++mask) {
    FiniteSet s(m_);
    for (std::size_t e = 0; e < m_; ++e) {
      if ((mask >> e) & 1) s.insert(e);
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

std::optional<FiniteSet> PowerSetSigma::interval(std::size_t w1, std::size_t w2) const {
  FiniteSet s(m_);
  s.insert(w1);
  s.insert(w2);
  return s;
}

}  // namespace epi
