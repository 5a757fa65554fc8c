#include "noc/route_cache.hpp"

namespace rtsm::noc {

namespace {

std::optional<Path> live_route(const LinkLoad& load, RoutePolicy policy,
                               TileId src, TileId dst, double demand) {
  return policy == RoutePolicy::Xy ? route_xy(load, src, dst, demand)
                                   : route_shortest(load, src, dst, demand);
}

}  // namespace

RouteCache::RouteCache(RouteCacheOptions options) : options_(options) {}

// Drops the lock before any live graph search (misses and congested
// fallbacks), which clang's analysis cannot follow through the
// std::unique_lock — opted out; lockdep still audits both transitions.
std::optional<Path> RouteCache::route(
    const LinkLoad& load, RoutePolicy policy, TileId src, TileId dst,
    double demand_tokens_per_s) RTSM_NO_THREAD_SAFETY_ANALYSIS {
  if (src == dst) return Path{src, dst, {}};  // intra-tile: nothing to cache

  audit::UniqueLock lock(mutex_);
  ++stats_.lookups;
  const arch::Platform& platform = load.platform();
  PlatformEntry& pe =
      platforms_.try_emplace(&platform, platform).first->second;
  const std::uint64_t key = key_of(policy, src, dst);

  auto it = pe.routes.find(key);
  if (it == pe.routes.end()) {
    ++stats_.misses;
    Entry entry;
    entry.idle_route = live_route(pe.idle, policy, src, dst, 0.0);
    it = pe.routes.emplace(key, std::move(entry)).first;
    order_.emplace_back(&platform, key);
    while (order_.size() > options_.max_entries) {
      const auto [victim_platform, victim_key] = order_.front();
      order_.pop_front();
      if (const auto vit = platforms_.find(victim_platform);
          vit != platforms_.end()) {
        vit->second.routes.erase(victim_key);
        ++stats_.evictions;
      }
    }
    // The just-inserted entry may have been the eviction victim (bound of
    // 0 or 1); re-find instead of trusting the iterator.
    it = pe.routes.find(key);
    if (it == pe.routes.end()) {
      lock.unlock();
      return live_route(load, policy, src, dst, demand_tokens_per_s);
    }
  } else {
    // A found entry either validates (hit) or falls back below.
    bool admissible = it->second.idle_route.has_value();
    if (admissible) {
      for (const LinkId link : it->second.idle_route->links) {
        if (!load.fits(link, demand_tokens_per_s)) {
          admissible = false;
          break;
        }
      }
      if (admissible) {
        ++stats_.hits;
        return it->second.idle_route;
      }
      ++stats_.fallbacks;
      lock.unlock();
      return live_route(load, policy, src, dst, demand_tokens_per_s);
    }
    // Idle network has no route at all: no loaded network has one either.
    ++stats_.hits;
    return std::nullopt;
  }

  // Fresh miss: validate the idle route against the live load like a hit
  // would (no extra search when the network is lightly loaded).
  if (!it->second.idle_route.has_value()) return std::nullopt;
  for (const LinkId link : it->second.idle_route->links) {
    if (!load.fits(link, demand_tokens_per_s)) {
      lock.unlock();
      return live_route(load, policy, src, dst, demand_tokens_per_s);
    }
  }
  return it->second.idle_route;
}

RouteCacheStats RouteCache::stats() const {
  const audit::LockGuard lock(mutex_);
  RouteCacheStats out = stats_;
  out.entries = order_.size();
  return out;
}

void RouteCache::clear() {
  const audit::LockGuard lock(mutex_);
  platforms_.clear();
  order_.clear();
}

std::size_t RouteCache::size() const {
  const audit::LockGuard lock(mutex_);
  return order_.size();
}

}  // namespace rtsm::noc
