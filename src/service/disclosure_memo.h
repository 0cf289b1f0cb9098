// One service scenario's bounded memo of disclosed sets and their verdicts.
// A scenario fixes the audited property A and the prior, so Safe(A, B)
// (Def. 3.1 / 3.4) depends on the disclosed set B alone, and B on the
// (query text, answer) that compiled it. Each entry is one distinct compiled
// B, its engine decision once decided, and the disclosure keys
// (core/audit_log.h `disclosure_key`) that compiled to it. Two indexes reach
// an entry:
//  * by key: a hit needs no parse, no compile and no set hashing;
//  * by set (WorldSet::hash, then equality): a key miss whose compiled set
//    the memo already holds (`x` answered no, `!x` answered yes) joins that
//    entry, key and all, and reuses its verdict.
// Keys compare as exact strings and sets by equality, so no collision can
// serve a wrong verdict.
//
// Bound: at most `capacity` entries; evicting the least recently used drops
// its set, its decision and all of its keys. Capacity 0 keeps nothing: every
// request compiles and decides its own set.
//
// Threading: one mutex, held for index lookups and list splices only, never
// across parse, compile or decide. Entries are handed out by shared_ptr, so
// an eviction never frees a set a worker still holds. Two workers deciding
// the same new set both count a miss.
//
// Metrics (`service.cache.{hits,misses,evictions}`, in the registry handed to
// the constructor): a hit is a verdict served from an entry, a miss one the
// engine decided.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/criterion_stage.h"
#include "obs/metrics.h"
#include "worlds/world_set.h"

namespace epi {
namespace service {

class DisclosureMemo {
 public:
  /// One distinct disclosed set.
  class Entry {
   public:
    explicit Entry(WorldSet disclosed) : set(std::move(disclosed)) {}
    const WorldSet set;

   private:
    friend class DisclosureMemo;
    std::optional<EngineDecision> decision_;  ///< guarded by the memo mutex
    std::vector<std::string> keys_;           ///< guarded by the memo mutex
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// `metrics` receives the service.cache.* counters; it must outlive the
  /// memo.
  DisclosureMemo(std::size_t capacity, obs::MetricsRegistry& metrics);

  DisclosureMemo(const DisclosureMemo&) = delete;
  DisclosureMemo& operator=(const DisclosureMemo&) = delete;

  /// The entry `key` compiled to, marked most recently used; null on a key
  /// miss.
  EntryPtr find(const std::string& key);

  /// Interns `set`, compiled from `key`: the entry holding an equal set when
  /// there is one (`key` joins it), else a new most recently used entry,
  /// evicting the least recently used one when full. Never null; at capacity
  /// 0 the entry is the caller's alone.
  EntryPtr intern(std::string key, WorldSet set);

  /// Safe(A, entry.set): the entry's decision when it has one (a hit,
  /// `*cached` true), else `decide(entry.set)`, run without the lock and
  /// recorded in the entry (a miss).
  template <typename Decide>
  EngineDecision decision(Entry& entry, Decide&& decide, bool* cached) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      *cached = entry.decision_.has_value();
      if (*cached) {
        hits_->add(1);
        return *entry.decision_;
      }
    }
    misses_->add(1);
    EngineDecision decided = decide(entry.set);
    std::lock_guard<std::mutex> lock(mutex_);
    entry.decision_ = decided;
    return decided;
  }

  /// Entries held (at most the capacity).
  std::size_t size() const;

 private:
  using Lru = std::list<EntryPtr>;  ///< front = most recently used

  std::size_t capacity_;
  mutable std::mutex mutex_;
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> by_key_;
  std::unordered_map<const WorldSet*, Lru::iterator, PointeeHash, PointeeEqual>
      by_set_;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace service
}  // namespace epi
