#include "verify/expansion_cache.hpp"

#include <utility>

#include "util/error.hpp"

namespace rtsm::verify {

ExpansionCache::ExpansionCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  require(max_entries_ > 0, "ExpansionCache needs room for at least 1 entry");
}

std::shared_ptr<const VerificationOutcome> ExpansionCache::find(
    const MappingSignature& signature) const {
  const audit::LockGuard lock(mutex_);
  const auto it = map_.find(signature);
  if (it == map_.end()) return nullptr;
  // Touch on hit: splice the entry to the front of the recency list (node
  // relinking only — no iterator is invalidated).
  lru_.splice(lru_.begin(), lru_, it->second.where);
  ++it->second.hits;
  return it->second.outcome;
}

void ExpansionCache::insert(
    MappingSignature signature,
    std::shared_ptr<const VerificationOutcome> outcome) {
  const audit::LockGuard lock(mutex_);
  const auto [it, inserted] = map_.try_emplace(std::move(signature));
  if (!inserted) return;  // a racing computation of the same key won
  lru_.push_front(&it->first);
  it->second.outcome = std::move(outcome);
  it->second.where = lru_.begin();
  while (map_.size() > max_entries_) {
    const auto victim = map_.find(*lru_.back());
    if (victim->second.hits > 0) ++evicted_while_hot_;
    map_.erase(victim);
    lru_.pop_back();
    ++evictions_;
  }
}

void ExpansionCache::clear() {
  const audit::LockGuard lock(mutex_);
  map_.clear();
  lru_.clear();
}

std::size_t ExpansionCache::size() const {
  const audit::LockGuard lock(mutex_);
  return map_.size();
}

std::uint64_t ExpansionCache::evictions() const {
  const audit::LockGuard lock(mutex_);
  return evictions_;
}

std::uint64_t ExpansionCache::evicted_while_hot() const {
  const audit::LockGuard lock(mutex_);
  return evicted_while_hot_;
}

}  // namespace rtsm::verify
