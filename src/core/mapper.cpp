#include "core/mapper.hpp"

#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rtsm::core {

MappingResult Mapper::map(const kpn::Application& app,
                          const arch::Platform& platform) const {
  return map(app, ResourceState(platform));
}

void commit_mapping(ResourceState& state, const kpn::Application& app,
                    const Mapping& mapping) {
  const arch::Platform& platform = state.platform();
  for (const ProcessId pid : app.process_ids()) {
    const TileId tile = mapping.tile_of(pid);
    const ImplementationId impl = mapping.impl_of(pid);
    const double util = claimed_utilization(
        impl_utilization(app, pid, impl, platform.tile_clock_hz(tile)));
    state.reserve_tile(tile, util, app.implementation(pid, impl).memory_bytes);
  }
  for (const ChannelId cid : app.channel_ids()) {
    const auto& path = mapping.path(cid);
    require(path.has_value(), "commit of an unrouted mapping");
    state.links().reserve_path(*path, app.tokens_per_second(cid));
  }
  if (const std::optional<ChannelId> misfit =
          commit_buffers(state, app, mapping)) {
    const TileId tile = mapping.tile_of(app.channel(*misfit).dst);
    throw Error("buffer over-reservation on '" + platform.tile(tile).name +
                "'");
  }
}

void release_mapping(ResourceState& state, const kpn::Application& app,
                     const Mapping& mapping) {
  const arch::Platform& platform = state.platform();
  for (const ProcessId pid : app.process_ids()) {
    const TileId tile = mapping.tile_of(pid);
    const ImplementationId impl = mapping.impl_of(pid);
    const double util = claimed_utilization(
        impl_utilization(app, pid, impl, platform.tile_clock_hz(tile)));
    state.release_tile(tile, util, app.implementation(pid, impl).memory_bytes);
  }
  for (const ChannelId cid : app.channel_ids()) {
    const auto& path = mapping.path(cid);
    if (!path) continue;
    state.links().release_path(*path, app.tokens_per_second(cid));
  }
  release_buffers(state, app, mapping);
}

std::optional<ChannelId> commit_buffers(ResourceState& state,
                                        const kpn::Application& app,
                                        const Mapping& mapping) {
  std::vector<std::pair<TileId, std::uint64_t>> reserved;
  reserved.reserve(app.channel_count());
  for (const ChannelId cid : app.channel_ids()) {
    const auto tokens = mapping.buffer_tokens(cid);
    if (!tokens) continue;
    const kpn::Channel& c = app.channel(cid);
    const TileId tile = mapping.tile_of(c.dst);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(*tokens) * c.token_bytes;
    if (!state.tile_fits(tile, 0.0, bytes, 0)) {
      for (const auto& [done, done_bytes] : reserved) {
        state.release_tile(done, 0.0, done_bytes, 0);
      }
      return cid;
    }
    state.reserve_tile(tile, 0.0, bytes, 0);
    reserved.emplace_back(tile, bytes);
  }
  return std::nullopt;
}

void release_buffers(ResourceState& state, const kpn::Application& app,
                     const Mapping& mapping) {
  for (const ChannelId cid : app.channel_ids()) {
    if (const auto tokens = mapping.buffer_tokens(cid)) {
      const kpn::Channel& c = app.channel(cid);
      state.release_tile(mapping.tile_of(c.dst), 0.0,
                         static_cast<std::uint64_t>(*tokens) * c.token_bytes,
                         0);
    }
  }
}

namespace {

// mapping_fits() probes with small flat accumulators over the handful of
// tiles and links one mapping touches instead of copying the whole
// platform-sized state: the check is O(processes + channels x path length),
// independent of the platform. Linear scans beat hashing at these sizes
// (tens of entries). The accumulators replicate the float association order
// of sequential reserve calls exactly — seed with the base value, compare
// `current + extra` against the same bound, then `current += extra` — so
// the verdict is bit-identical to the old copy-based probe and
// mapping_fits() still implies commit_mapping() succeeds.

struct TileProbe {
  std::uint32_t tile;
  double util;
  std::uint64_t mem;
  std::uint32_t procs;
};

struct LinkProbe {
  std::uint32_t link;
  double reserved;
};

TileProbe& probe_tile(std::vector<TileProbe>& tiles, const ResourceState& base,
                      TileId tile) {
  for (TileProbe& t : tiles) {
    if (t.tile == tile.value()) return t;
  }
  tiles.push_back({tile.value(), base.utilization(tile),
                   base.memory_used(tile), base.processes_hosted(tile)});
  return tiles.back();
}

LinkProbe& probe_link(std::vector<LinkProbe>& links, const ResourceState& base,
                      LinkId link) {
  for (LinkProbe& l : links) {
    if (l.link == link.value()) return l;
  }
  links.push_back({link.value(), base.links().reserved(link)});
  return links.back();
}

/// Mirrors ResourceState::reserve_tile() against the accumulator: false
/// exactly when the real reservation would fail.
bool probe_reserve_tile(std::vector<TileProbe>& tiles,
                        const ResourceState& base, TileId tile, double util,
                        std::uint64_t mem, std::uint32_t procs) {
  if (!(util >= 0.0)) return false;  // commit's require(); also rejects NaN
  TileProbe& t = probe_tile(tiles, base, tile);
  const arch::Tile& spec = base.platform().tile(tile);
  if (t.util + util > 1.0 + ResourceState::kUtilSlack) return false;
  if (t.procs + procs > spec.process_slots) return false;
  const std::uint64_t free =
      t.mem >= spec.memory_bytes ? 0 : spec.memory_bytes - t.mem;
  if (mem > free) return false;
  t.util += util;
  t.mem += mem;
  t.procs += procs;
  return true;
}

/// Mirrors LinkLoad::reserve_path(): validate every link against the state
/// at path start, then reserve sequentially (the second pass re-checks, so
/// a path crossing one link twice is accounted like the real reservation).
bool probe_reserve_path(std::vector<LinkProbe>& links,
                        const ResourceState& base, const noc::Path& path,
                        double demand) {
  if (!(demand >= 0.0)) return false;
  const arch::Platform& platform = base.platform();
  for (const LinkId link : path.links) {
    const LinkProbe& l = probe_link(links, base, link);
    const double cap = platform.link(link).capacity_tokens_per_s;
    if (l.reserved + demand > cap * (1.0 + noc::LinkLoad::kSlack)) {
      return false;
    }
  }
  for (const LinkId link : path.links) {
    LinkProbe& l = probe_link(links, base, link);
    const double cap = platform.link(link).capacity_tokens_per_s;
    if (l.reserved + demand > cap * (1.0 + noc::LinkLoad::kSlack)) {
      return false;
    }
    l.reserved += demand;
  }
  return true;
}

}  // namespace

bool mapping_fits(const ResourceState& base, const kpn::Application& app,
                  const Mapping& mapping) {
  if (!mapping.all_assigned() || !mapping.all_routed()) return false;

  const arch::Platform& platform = base.platform();
  std::vector<TileProbe> tiles;
  std::vector<LinkProbe> links;
  for (const ProcessId pid : app.process_ids()) {
    const TileId tile = mapping.tile_of(pid);
    const ImplementationId impl = mapping.impl_of(pid);
    const double util = claimed_utilization(
        impl_utilization(app, pid, impl, platform.tile_clock_hz(tile)));
    const std::uint64_t mem = app.implementation(pid, impl).memory_bytes;
    if (!probe_reserve_tile(tiles, base, tile, util, mem, 1)) return false;
  }
  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    const auto& path = mapping.path(cid);
    const double demand = app.tokens_per_second(cid);
    if (!probe_reserve_path(links, base, *path, demand)) return false;
    if (const auto tokens = mapping.buffer_tokens(cid)) {
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(*tokens) * c.token_bytes;
      const TileId consumer = mapping.tile_of(c.dst);
      if (!probe_reserve_tile(tiles, base, consumer, 0.0, bytes, 0)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rtsm::core
