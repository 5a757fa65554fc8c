#pragma once

#include <cstddef>

#include "core/resource_state.hpp"

namespace rtsm::core {

/// Tuning of the fragmentation measurement.
struct FragmentationOptions {
  /// A tile belongs to a *free region* when it hosts no process, books no
  /// utilisation, and its committed memory stays below this fraction.
  /// Buffer bytes land on consumer tiles (which host the consumer
  /// process), so a process-free tile is normally byte-free too; the
  /// fraction tolerates exotic bookkeeping.
  double free_memory_fraction_max = 0.05;
};

/// Snapshot of how fragmented the platform's residual capacity is.
///
/// Two phenomena make a mesh reject applications that would fit a compacted
/// platform of the same total load:
///
/// 1. *Occupancy dispersion* — the booked capacity is smeared over many
///    partially-used tiles instead of packed onto few. A process that needs
///    most of a tile then fits nowhere although the summed slack would hold
///    several of it.
/// 2. *Free-capacity scatter* — the free capacity that does exist is split
///    into small, mutually distant islands. An application whose processes
///    must sit close together (NoC link budgets, hop-buffer throttling,
///    latency bounds) cannot use islands that are far apart.
///
/// Both are reported in [0, 1]; score() combines them. 0 = perfectly
/// compact (an idle platform, or one packed tile-by-tile), 1 = maximally
/// fragmented.
struct FragmentationMetrics {
  std::size_t tile_count = 0;
  /// Tiles with any occupancy at all.
  std::size_t busy_tiles = 0;
  /// Tiles counting as free per FragmentationOptions.
  std::size_t free_tiles = 0;
  /// Largest mesh-connected component of free tiles (adjacency = router
  /// Manhattan distance <= 1, so tiles sharing a router are adjacent).
  std::size_t largest_free_region = 0;

  /// Sum over tiles of occupancy(tile) = max(utilisation, memory fraction,
  /// slot fraction) — the booked capacity in "tile units".
  double total_occupancy = 0.0;

  /// 1 - (sum of occupancy^2) / (sum of occupancy): how far the booked
  /// capacity is from being packed onto saturated tiles. 0 when every
  /// dirtied tile is fully occupied; approaches 1 as the same load smears
  /// into thin slivers. Continuous, so *every* consolidation move (load
  /// shifted from an emptier tile onto a fuller one) strictly reduces it
  /// — the defrag planner's greedy search cannot plateau between moves
  /// that only become visible once a tile is completely emptied.
  double occupancy_dispersion = 0.0;

  /// 1 - largest_free_region / free capacity (in tile units). 0 when all
  /// free capacity forms one fully-free connected region; 1 when free
  /// capacity exists only as scattered partial slack.
  double free_scatter = 0.0;

  /// Combined fragmentation score in [0, 1]; the defrag trigger quantity.
  [[nodiscard]] double score() const {
    return 0.5 * occupancy_dispersion + 0.5 * free_scatter;
  }
};

/// Per-tile occupancy in [0, 1]: the most constrained of compute
/// utilisation, memory use and process slots.
[[nodiscard]] double tile_occupancy(const ResourceState& state, TileId tile);

/// Mean tile_occupancy over the whole platform — the load probe the
/// fleet dispatcher ranks platforms by (one O(tiles) scan).
[[nodiscard]] double mean_occupancy(const ResourceState& state);

/// The free-region membership predicate of the metric, shared with the
/// defrag planner's packing mask so both always agree on what "free"
/// means.
[[nodiscard]] bool is_free_tile(const ResourceState& state, TileId tile,
                                const FragmentationOptions& options = {});

/// Measures the fragmentation of @p state (one pass over the tiles plus a
/// BFS over the free ones).
[[nodiscard]] FragmentationMetrics measure_fragmentation(
    const ResourceState& state, const FragmentationOptions& options = {});

}  // namespace rtsm::core
