#include "shapes/shape.hpp"

#include <algorithm>

#include "core/resource_state.hpp"
#include "util/error.hpp"
#include "util/words.hpp"

namespace rtsm::shapes {

namespace {

/// A fixture pin: a presence flag, then the exact tile name.
template <class Sink>
void put_pin(Sink& w, const std::optional<std::string>& pinned_tile) {
  w.put(pinned_tile.has_value() ? 1 : 0);
  if (pinned_tile.has_value()) w.put_string(*pinned_tile);
}

std::uint64_t rr_key(RouterId from, RouterId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}

}  // namespace

SkeletonKey SkeletonKey::of(const kpn::Application& app) {
  SkeletonKey key;
  key.words = serialize_words([&app](auto& w) {
    // QoS.
    const kpn::QosConstraints& qos = app.qos();
    w.put(qos.symbol_period_ns);
    w.put(qos.max_latency_ns.has_value() ? 1 : 0);
    w.put(qos.max_latency_ns.value_or(0));
    w.put(qos.frame_symbols);

    // Per process: fixture pin and the full implementation option content.
    // Process and implementation *names* are excluded so structurally
    // equal graphs share a key; pinned tile names are platform identities
    // and must stay.
    w.put(app.process_count());
    for (const ProcessId pid : app.process_ids()) {
      const kpn::Process& p = app.process(pid);
      put_pin(w, p.pinned_tile);
      w.put(p.implementations.size());
      for (const kpn::Implementation& im : p.implementations) {
        w.put_string(im.tile_type);
        w.put_run(im.wcet_cc);
        w.put_double(im.energy_nj_per_symbol);
        w.put(im.memory_bytes);
        w.put(im.inputs.size());
        for (const kpn::PortSpec& port : im.inputs) {
          w.put(port.channel.value());
          w.put_run(port.rates);
        }
        w.put(im.outputs.size());
        for (const kpn::PortSpec& port : im.outputs) {
          w.put(port.channel.value());
          w.put_run(port.rates);
        }
      }
    }

    // Per channel: endpoints and token geometry.
    w.put(app.channel_count());
    for (const ChannelId cid : app.channel_ids()) {
      const kpn::Channel& c = app.channel(cid);
      w.put(c.src.value());
      w.put(c.dst.value());
      w.put(c.tokens_per_symbol);
      w.put(c.token_bytes);
    }
  });
  key.hash = hash_words(key.words);
  return key;
}

MeshIndex::MeshIndex(const arch::Platform& platform) : platform_(&platform) {
  for (std::size_t i = 0; i < platform.link_count(); ++i) {
    const LinkId id{static_cast<LinkId::value_type>(i)};
    const arch::Link& link = platform.link(id);
    if (link.kind == arch::LinkKind::RouterToRouter) {
      rr_.emplace(rr_key(link.from_router, link.to_router), id);
    }
  }
  for (const TileId tile : platform.tile_ids()) {
    by_name_.emplace(platform.tile(tile).name, tile);
  }
}

TileId MeshIndex::tile_at(arch::Coord c, TileTypeId type,
                          const std::optional<std::string>& pinned) const {
  if (c.x >= platform_->mesh_width() || c.y >= platform_->mesh_height()) {
    return TileId{};
  }
  const RouterId router = platform_->router_at(c.x, c.y);
  for (const TileId tile : platform_->router_tiles(router)) {
    const arch::Tile& t = platform_->tile(tile);
    if (t.type != type) continue;
    if (pinned.has_value() && t.name != *pinned) continue;
    return tile;
  }
  return TileId{};
}

LinkId MeshIndex::rr_link(RouterId from, RouterId to) const {
  const auto it = rr_.find(rr_key(from, to));
  return it == rr_.end() ? LinkId{} : it->second;
}

TileId MeshIndex::tile_by_name(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? TileId{} : it->second;
}

arch::Coord MeshIndex::tile_coord(TileId tile) const {
  const arch::Tile& t = platform_->tile(tile);
  return {t.x, t.y};
}

namespace {

/// Serializes one symmetry's image of the placement; the lexicographically
/// smallest word vector over all 8 symmetries is the canonical form.
std::vector<std::uint64_t> shape_words(
    arch::Coord extent, const std::vector<ShapeProcess>& processes,
    const std::vector<arch::Coord>& ppos,
    const std::vector<ShapeChannel>& channels,
    const std::vector<std::vector<arch::Coord>>& routes) {
  return serialize_words([&](auto& w) {
    w.put(extent.x);
    w.put(extent.y);
    w.put(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
      const ShapeProcess& p = processes[i];
      w.put(ppos[i].x);
      w.put(ppos[i].y);
      w.put(p.impl.value());
      w.put(p.type.value());
      put_pin(w, p.pinned_tile);
    }
    w.put(channels.size());
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const ShapeChannel& c = channels[i];
      w.put(routes[i].size());
      for (const arch::Coord r : routes[i]) {
        w.put(r.x);
        w.put(r.y);
      }
      w.put(c.has_buffer ? 1 : 0);
      w.put(c.buffer_tokens);
    }
  });
}

}  // namespace

CanonicalShape canonicalize(const kpn::Application& app,
                            const arch::Platform& platform,
                            const core::Mapping& mapping) {
  require(mapping.all_assigned() && mapping.all_routed(),
          "canonicalize requires a placed and routed mapping");

  // Gather the raw geometry: process tile coordinates and per-channel
  // router coordinate sequences. Route coordinates are included in the
  // bounding box — a congestion detour of route_shortest may leave the
  // rectangle spanned by the tiles alone.
  CanonicalShape shape;
  std::vector<arch::Coord> ppos(app.process_count());
  std::vector<std::vector<arch::Coord>> routes(app.channel_count());

  arch::Coord lo{UINT32_MAX, UINT32_MAX};
  arch::Coord hi{0, 0};
  const auto cover = [&lo, &hi](arch::Coord c) {
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
  };

  shape.processes.resize(app.process_count());
  for (const ProcessId pid : app.process_ids()) {
    const arch::Tile& tile = platform.tile(mapping.tile_of(pid));
    ShapeProcess& p = shape.processes[pid.value()];
    p.impl = mapping.impl_of(pid);
    p.type = tile.type;
    p.utilization = core::claimed_utilization(core::impl_utilization(
        app, pid, p.impl, platform.tile_clock_hz(mapping.tile_of(pid))));
    p.memory_bytes = app.implementation(pid, p.impl).memory_bytes;
    p.pinned_tile = app.process(pid).pinned_tile;
    if (p.pinned_tile.has_value()) shape.has_pinned = true;
    ppos[pid.value()] = {tile.x, tile.y};
    cover(ppos[pid.value()]);
  }

  shape.channels.resize(app.channel_count());
  for (const ChannelId cid : app.channel_ids()) {
    const noc::Path& path = *mapping.path(cid);
    ShapeChannel& c = shape.channels[cid.value()];
    for (const RouterId router : path.routers(platform)) {
      const auto [x, y] = platform.router_pos(router);
      routes[cid.value()].push_back({x, y});
      cover(routes[cid.value()].back());
    }
    const std::optional<std::uint32_t> tokens = mapping.buffer_tokens(cid);
    c.has_buffer = tokens.has_value();
    c.buffer_tokens = tokens.value_or(0);
  }

  // Translate to the origin.
  for (arch::Coord& c : ppos) c = {c.x - lo.x, c.y - lo.y};
  for (auto& route : routes) {
    for (arch::Coord& c : route) c = {c.x - lo.x, c.y - lo.y};
  }
  const arch::Coord extent{hi.x - lo.x + 1, hi.y - lo.y + 1};

  // Minimize over the 8 symmetries.
  std::vector<std::uint64_t> best_words;
  for (const arch::MeshSymmetry sym : arch::kAllMeshSymmetries) {
    const arch::Coord ext = arch::transformed_extent(sym, extent);
    std::vector<arch::Coord> tp(ppos.size());
    for (std::size_t i = 0; i < ppos.size(); ++i) {
      tp[i] = arch::apply_symmetry(sym, ppos[i], extent);
    }
    std::vector<std::vector<arch::Coord>> tr(routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
      tr[i].reserve(routes[i].size());
      for (const arch::Coord c : routes[i]) {
        tr[i].push_back(arch::apply_symmetry(sym, c, extent));
      }
    }
    std::vector<std::uint64_t> words =
        shape_words(ext, shape.processes, tp, shape.channels, tr);
    if (best_words.empty() || words < best_words) {
      best_words = std::move(words);
      shape.extent = ext;
      for (std::size_t i = 0; i < tp.size(); ++i) {
        shape.processes[i].pos = tp[i];
      }
      for (std::size_t i = 0; i < tr.size(); ++i) {
        shape.channels[i].routers = std::move(tr[i]);
      }
    }
  }
  shape.words = std::move(best_words);
  shape.hash = hash_words(shape.words);

  // Most-constrained-first probe order: pinned processes (at most one
  // candidate tile each), then by descending utilisation.
  shape.probe_order.resize(shape.processes.size());
  for (std::size_t i = 0; i < shape.probe_order.size(); ++i) {
    shape.probe_order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(shape.probe_order.begin(), shape.probe_order.end(),
            [&shape](std::uint32_t a, std::uint32_t b) {
              const ShapeProcess& pa = shape.processes[a];
              const ShapeProcess& pb = shape.processes[b];
              const bool pin_a = pa.pinned_tile.has_value();
              const bool pin_b = pb.pinned_tile.has_value();
              if (pin_a != pin_b) return pin_a;
              if (pa.utilization != pb.utilization) {
                return pa.utilization > pb.utilization;
              }
              return a < b;
            });

  return shape;
}

std::optional<core::Mapping> materialize(const CanonicalShape& shape,
                                         const kpn::Application& app,
                                         const MeshIndex& index,
                                         const arch::MeshTransform& transform) {
  if (shape.processes.size() != app.process_count() ||
      shape.channels.size() != app.channel_count()) {
    return std::nullopt;
  }
  const arch::Platform& platform = index.platform();

  core::Mapping mapping(app.process_count(), app.channel_count());
  for (std::size_t i = 0; i < shape.processes.size(); ++i) {
    const ShapeProcess& p = shape.processes[i];
    const arch::Coord c = transform.apply(p.pos, shape.extent);
    const TileId tile = index.tile_at(c, p.type, p.pinned_tile);
    if (!tile.valid()) return std::nullopt;
    mapping.assign(ProcessId{static_cast<ProcessId::value_type>(i)}, p.impl,
                   tile);
  }

  for (std::size_t i = 0; i < shape.channels.size(); ++i) {
    const ShapeChannel& c = shape.channels[i];
    const ChannelId cid{static_cast<ChannelId::value_type>(i)};
    const TileId src = mapping.tile_of(app.channel(cid).src);
    const TileId dst = mapping.tile_of(app.channel(cid).dst);
    noc::Path path{src, dst, {}};
    if (c.routers.empty()) {
      if (src != dst) return std::nullopt;
    } else if (src == dst) {
      // Two tiles of the learned placement shared one router and collapsed
      // onto one tile here; the channel becomes intra-tile (books strictly
      // less than the learned shape, so still safe to commit).
    } else {
      path.links.push_back(platform.inject_link(src));
      RouterId prev;
      for (const arch::Coord rc : c.routers) {
        const arch::Coord tc = transform.apply(rc, shape.extent);
        if (tc.x >= platform.mesh_width() || tc.y >= platform.mesh_height()) {
          return std::nullopt;
        }
        const RouterId router = platform.router_at(tc.x, tc.y);
        if (prev.valid()) {
          const LinkId rr = index.rr_link(prev, router);
          if (!rr.valid()) return std::nullopt;
          path.links.push_back(rr);
        }
        prev = router;
      }
      path.links.push_back(platform.eject_link(dst));
    }
    mapping.set_path(cid, std::move(path));
    if (c.has_buffer) mapping.set_buffer_tokens(cid, c.buffer_tokens);
  }

  return mapping;
}

}  // namespace rtsm::shapes
