#include "service/disclosure_memo.h"

#include <utility>

namespace epi {
namespace service {

DisclosureMemo::DisclosureMemo(std::size_t capacity,
                               obs::MetricsRegistry& metrics)
    : capacity_(capacity),
      hits_(&metrics.counter("service.cache.hits")),
      misses_(&metrics.counter("service.cache.misses")),
      evictions_(&metrics.counter("service.cache.evictions")) {}

DisclosureMemo::EntryPtr DisclosureMemo::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

DisclosureMemo::EntryPtr DisclosureMemo::intern(std::string key,
                                                WorldSet set) {
  auto fresh = std::make_shared<Entry>(std::move(set));
  if (capacity_ == 0) return fresh;
  std::lock_guard<std::mutex> lock(mutex_);
  // Another worker may have interned this key meanwhile.
  auto slot = by_key_.find(key);
  if (slot == by_key_.end()) {
    lru_.push_front(fresh);
    const auto [held, added] = by_set_.try_emplace(&fresh->set, lru_.begin());
    if (!added) {
      lru_.pop_front();  // an equal set is held: the key joins its entry
    } else if (lru_.size() > capacity_) {
      const EntryPtr& victim = lru_.back();
      for (const std::string& k : victim->keys_) by_key_.erase(k);
      by_set_.erase(&victim->set);
      lru_.pop_back();
      evictions_->add(1);
    }
    (*held->second)->keys_.push_back(key);
    slot = by_key_.emplace(std::move(key), held->second).first;
  }
  lru_.splice(lru_.begin(), lru_, slot->second);
  return *slot->second;
}

std::size_t DisclosureMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace service
}  // namespace epi
