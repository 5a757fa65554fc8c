#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "audit/mutex.hpp"
#include "noc/link_load.hpp"
#include "noc/route.hpp"

namespace rtsm::noc {

/// Which routing algorithm a cached route came from; part of the cache key
/// (an XY route is not a valid answer to a shortest-path query).
enum class RoutePolicy : std::uint8_t { Shortest, Xy };

struct RouteCacheOptions {
  /// Route-entry bound across all platforms (FIFO eviction beyond it).
  std::size_t max_entries = 4096;
};

/// Counters of the route cache (value snapshot; thread-safe read).
struct RouteCacheStats {
  std::uint64_t lookups = 0;
  /// Cached route admissible under the live load — returned without any
  /// graph search.
  std::uint64_t hits = 0;
  /// No cached route yet; the idle-network route was computed and stored.
  std::uint64_t misses = 0;
  /// Cached route blocked by live congestion — fell back to a live search.
  std::uint64_t fallbacks = 0;
  std::uint64_t evictions = 0;
  /// Cached routes when the snapshot was taken (bounded by
  /// RouteCacheOptions::max_entries).
  std::uint64_t entries = 0;

  [[nodiscard]] double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Thread-safe memo of NoC routes, shared across every router of a manager
/// (step-3 channel routing, shape materialisation and defrag/migration
/// replans all funnel through it) — the step-3 analogue of the step-4
/// verify::Engine cache.
///
/// Keyed by (platform identity, policy, src, dst); the NoC parameters are
/// the platform's, so the platform pointer covers them. Each entry stores
/// the policy's route on the *idle* network (computed once with zero
/// demand, whose admissible-link graph is a superset of every loaded one).
/// A lookup validates the cached route link-by-link against the live load
/// and the actual demand:
///  - XY routes are load-independent, so validation equals exactly the
///    fits() checks route_xy() would have made;
///  - for shortest routes, if every cached link still admits the demand the
///    live search provably returns this very route: the live admissible
///    graph is a subgraph of the idle one that still contains the cached
///    path, so shortest distances along it are unchanged and the per-node
///    smallest-predecessor tie-break picks the same parent chain (the
///    argmin of a superset that lies in the subset is the subset's argmin).
/// When validation fails the cache falls back to a live search. Either way
/// the result is bit-identical to the uncached call.
class RouteCache {
 public:
  explicit RouteCache(RouteCacheOptions options = {});

  /// Cached equivalent of route_shortest()/route_xy() (selected by
  /// @p policy) on @p load; identical results, amortised O(path length).
  [[nodiscard]] std::optional<Path> route(const LinkLoad& load,
                                          RoutePolicy policy, TileId src,
                                          TileId dst,
                                          double demand_tokens_per_s);

  [[nodiscard]] RouteCacheStats stats() const;

  /// Drops all cached routes (stats are kept).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const RouteCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    /// The idle-network route; nullopt when even the idle network has none
    /// (then no loaded network has one either — a cacheable negative).
    std::optional<Path> idle_route;
  };

  /// Per-platform state: an idle LinkLoad to run cold searches against,
  /// plus this platform's route entries.
  struct PlatformEntry {
    explicit PlatformEntry(const arch::Platform& platform) : idle(platform) {}
    LinkLoad idle;
    std::unordered_map<std::uint64_t, Entry> routes;
  };

  static std::uint64_t key_of(RoutePolicy policy, TileId src, TileId dst) {
    return (static_cast<std::uint64_t>(src.value()) << 33) |
           (static_cast<std::uint64_t>(dst.value()) << 1) |
           static_cast<std::uint64_t>(policy);
  }

  RouteCacheOptions options_;

  /// Innermost of the mapper-shared cache locks: held only around map
  /// bookkeeping, released before any live graph search.
  mutable audit::Mutex mutex_{audit::LockRank::kRouteCache, "noc.route_cache"};
  RouteCacheStats stats_ RTSM_GUARDED_BY(mutex_);
  /// Keyed by platform identity. Platforms must outlive the cache (they
  /// already must outlive every LinkLoad handed to route()).
  std::unordered_map<const arch::Platform*, PlatformEntry> platforms_
      RTSM_GUARDED_BY(mutex_);
  /// Insertion order across platforms, for FIFO eviction at max_entries.
  std::deque<std::pair<const arch::Platform*, std::uint64_t>> order_
      RTSM_GUARDED_BY(mutex_);
};

/// Shared constructor tail of every mapper that routes: returns @p cache
/// unchanged when set, a fresh private cache when @p enabled, and null
/// otherwise (mirrors verify::ensure_engine()).
[[nodiscard]] inline std::shared_ptr<RouteCache> ensure_route_cache(
    bool enabled, std::shared_ptr<RouteCache> cache) {
  if (enabled && cache == nullptr) return std::make_shared<RouteCache>();
  return cache;
}

}  // namespace rtsm::noc
