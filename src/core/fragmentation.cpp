#include "core/fragmentation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace rtsm::core {

namespace {

double memory_fraction(const ResourceState& state, TileId tile) {
  const std::uint64_t total = state.platform().tile(tile).memory_bytes;
  if (total == 0) return 1.0;
  return static_cast<double>(state.memory_used(tile)) /
         static_cast<double>(total);
}

}  // namespace

bool is_free_tile(const ResourceState& state, TileId tile,
                  const FragmentationOptions& options) {
  return state.processes_hosted(tile) == 0 &&
         state.utilization_units(tile) == 0 &&
         memory_fraction(state, tile) <= options.free_memory_fraction_max;
}

double tile_occupancy(const ResourceState& state, TileId tile) {
  const arch::Tile& t = state.platform().tile(tile);
  const double slot_fraction =
      t.process_slots == 0
          ? 1.0
          : static_cast<double>(state.processes_hosted(tile)) /
                static_cast<double>(t.process_slots);
  return std::max(
      {state.utilization(tile), memory_fraction(state, tile), slot_fraction});
}

double mean_occupancy(const ResourceState& state) {
  const std::vector<TileId> tiles = state.platform().tile_ids();
  if (tiles.empty()) return 0.0;
  double sum = 0.0;
  for (const TileId tile : tiles) sum += tile_occupancy(state, tile);
  return sum / static_cast<double>(tiles.size());
}

FragmentationMetrics measure_fragmentation(
    const ResourceState& state, const FragmentationOptions& options) {
  const arch::Platform& platform = state.platform();
  const std::vector<TileId> tiles = platform.tile_ids();

  FragmentationMetrics m;
  m.tile_count = tiles.size();
  if (tiles.empty()) return m;

  std::vector<double> occupancy(tiles.size(), 0.0);
  std::vector<bool> is_free(tiles.size(), false);
  double occupancy_sq = 0.0;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    occupancy[i] = tile_occupancy(state, tiles[i]);
    m.total_occupancy += occupancy[i];
    occupancy_sq += occupancy[i] * occupancy[i];
    if (occupancy[i] > 0.0) ++m.busy_tiles;

    is_free[i] = is_free_tile(state, tiles[i], options);
    if (is_free[i]) ++m.free_tiles;
  }

  // Largest connected free region. Tiles are adjacent when their routers
  // are at Manhattan distance <= 1 (tiles on the same router touch).
  // Free tiles are bucketed by router coordinate, so each BFS pop only
  // probes its four neighbour routers (and its own) instead of scanning
  // every tile.
  const std::size_t width = platform.mesh_width();
  const std::size_t height = platform.mesh_height();
  std::vector<std::vector<std::size_t>> by_router(width * height);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (!is_free[i]) continue;
    const arch::Tile& t = platform.tile(tiles[i]);
    by_router[t.y * width + t.x].push_back(i);
  }
  std::vector<bool> visited(tiles.size(), false);
  std::vector<std::size_t> stack;
  for (std::size_t seed = 0; seed < tiles.size(); ++seed) {
    if (!is_free[seed] || visited[seed]) continue;
    std::size_t region = 0;
    stack.push_back(seed);
    visited[seed] = true;
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      ++region;
      const arch::Tile& t = platform.tile(tiles[i]);
      const std::array<std::pair<std::int64_t, std::int64_t>, 5> around = {
          {{t.x, t.y},
           {static_cast<std::int64_t>(t.x) - 1, t.y},
           {static_cast<std::int64_t>(t.x) + 1, t.y},
           {t.x, static_cast<std::int64_t>(t.y) - 1},
           {t.x, static_cast<std::int64_t>(t.y) + 1}}};
      for (const auto& [x, y] : around) {
        if (x < 0 || y < 0 || x >= static_cast<std::int64_t>(width) ||
            y >= static_cast<std::int64_t>(height)) {
          continue;
        }
        for (const std::size_t j :
             by_router[static_cast<std::size_t>(y) * width +
                       static_cast<std::size_t>(x)]) {
          if (visited[j]) continue;
          visited[j] = true;
          stack.push_back(j);
        }
      }
    }
    m.largest_free_region = std::max(m.largest_free_region, region);
  }

  // Dispersion: distance from fully-packed occupancy. The quadratic mean
  // rewards every consolidation step, not just the one that empties a
  // tile (see the header).
  if (m.total_occupancy > 1e-12) {
    m.occupancy_dispersion =
        std::clamp(1.0 - occupancy_sq / m.total_occupancy, 0.0, 1.0);
  }

  // Scatter: what share of the free capacity is *not* reachable as the
  // single largest fully-free connected region.
  const double free_capacity =
      static_cast<double>(m.tile_count) - m.total_occupancy;
  if (free_capacity > 1e-9) {
    m.free_scatter = std::clamp(
        1.0 - static_cast<double>(m.largest_free_region) / free_capacity, 0.0,
        1.0);
  }
  return m;
}

}  // namespace rtsm::core
