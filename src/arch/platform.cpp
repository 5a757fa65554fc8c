#include "arch/platform.hpp"

#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace rtsm::arch {

Platform::Platform(std::string name, std::uint32_t mesh_width,
                   std::uint32_t mesh_height, NocParams noc)
    : name_(std::move(name)), width_(mesh_width), height_(mesh_height),
      noc_(noc) {
  require(width_ > 0 && height_ > 0, "platform mesh must be non-empty");
  require(noc_.link_capacity_tokens_per_s > 0,
          "NoC link capacity must be positive");
  require(noc_.noc_clock_hz > 0, "NoC clock must be positive");

  router_out_.resize(router_count());
  router_tiles_.resize(router_count());

  // Eagerly create all router-to-router mesh links (4-neighbour, directed).
  for (std::uint32_t y = 0; y < height_; ++y) {
    for (std::uint32_t x = 0; x < width_; ++x) {
      const RouterId from = router_at(x, y);
      auto connect = [&](std::uint32_t nx, std::uint32_t ny) {
        const RouterId to = router_at(nx, ny);
        links_.push_back(Link{LinkKind::RouterToRouter, from, to, TileId{},
                              noc_.link_capacity_tokens_per_s});
        router_out_[from.value()].push_back(
            LinkId{static_cast<LinkId::value_type>(links_.size() - 1)});
      };
      if (x + 1 < width_) connect(x + 1, y);
      if (x > 0) connect(x - 1, y);
      if (y + 1 < height_) connect(x, y + 1);
      if (y > 0) connect(x, y - 1);
    }
  }
}

TileTypeId Platform::add_tile_type(const std::string& name,
                                   std::uint64_t clock_hz) {
  for (const TileType& t : types_) {
    require(t.name != name,
            [&] { return "duplicate tile type '" + name + "'"; });
  }
  require(clock_hz > 0, "tile type clock must be positive");
  types_.push_back(TileType{name, clock_hz});
  return TileTypeId{static_cast<TileTypeId::value_type>(types_.size() - 1)};
}

TileId Platform::add_tile(const std::string& name, TileTypeId type,
                          std::uint32_t x, std::uint32_t y,
                          std::uint64_t memory_bytes,
                          std::uint32_t process_slots) {
  check_type(type);
  require(x < width_ && y < height_,
          [&] { return "tile '" + name + "' placed outside the mesh"; });
  require(process_slots >= 1,
          [&] { return "tile '" + name + "' needs >= 1 process slot"; });
  for (const Tile& t : tiles_) {
    require(t.name != name,
            [&] { return "duplicate tile name '" + name + "'"; });
  }
  tiles_.push_back(Tile{name, type, x, y, memory_bytes, process_slots});
  const TileId id{static_cast<TileId::value_type>(tiles_.size() - 1)};
  const RouterId router = router_at(x, y);
  router_tiles_[router.value()].push_back(id);

  links_.push_back(Link{LinkKind::Inject, RouterId{}, router, id,
                        noc_.link_capacity_tokens_per_s});
  inject_.push_back(LinkId{static_cast<LinkId::value_type>(links_.size() - 1)});
  links_.push_back(Link{LinkKind::Eject, router, RouterId{}, id,
                        noc_.link_capacity_tokens_per_s});
  eject_.push_back(LinkId{static_cast<LinkId::value_type>(links_.size() - 1)});
  return id;
}

const TileType& Platform::tile_type(TileTypeId id) const {
  check_type(id);
  return types_[id.value()];
}

const Tile& Platform::tile(TileId id) const {
  check_tile(id);
  return tiles_[id.value()];
}

const Link& Platform::link(LinkId id) const {
  check_link(id);
  return links_[id.value()];
}

TileTypeId Platform::type_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) {
      return TileTypeId{static_cast<TileTypeId::value_type>(i)};
    }
  }
  throw Error("unknown tile type '" + name + "' on platform '" + name_ + "'");
}

TileId Platform::tile_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (tiles_[i].name == name) {
      return TileId{static_cast<TileId::value_type>(i)};
    }
  }
  throw Error("unknown tile '" + name + "' on platform '" + name_ + "'");
}

std::vector<TileId> Platform::tile_ids() const {
  std::vector<TileId> ids;
  ids.reserve(tiles_.size());
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    ids.emplace_back(static_cast<TileId::value_type>(i));
  }
  return ids;
}

std::vector<TileId> Platform::tiles_of_type(TileTypeId type) const {
  check_type(type);
  std::vector<TileId> ids;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (tiles_[i].type == type) {
      ids.emplace_back(static_cast<TileId::value_type>(i));
    }
  }
  return ids;
}

RouterId Platform::router_at(std::uint32_t x, std::uint32_t y) const {
  require(x < width_ && y < height_, "router coordinate outside the mesh");
  return RouterId{static_cast<RouterId::value_type>(y * width_ + x)};
}

std::pair<std::uint32_t, std::uint32_t> Platform::router_pos(
    RouterId router) const {
  require(router.valid() && router.value() < router_count(),
          "router id out of range");
  return {router.value() % width_, router.value() / width_};
}

RouterId Platform::tile_router(TileId tile) const {
  const Tile& t = this->tile(tile);
  return router_at(t.x, t.y);
}

std::uint32_t Platform::manhattan(TileId a, TileId b) const {
  const Tile& ta = tile(a);
  const Tile& tb = tile(b);
  return static_cast<std::uint32_t>(
      std::abs(static_cast<std::int64_t>(ta.x) - tb.x) +
      std::abs(static_cast<std::int64_t>(ta.y) - tb.y));
}

const std::vector<LinkId>& Platform::router_out_links(RouterId router) const {
  require(router.valid() && router.value() < router_count(),
          "router id out of range");
  return router_out_[router.value()];
}

LinkId Platform::inject_link(TileId tile) const {
  check_tile(tile);
  return inject_[tile.value()];
}

LinkId Platform::eject_link(TileId tile) const {
  check_tile(tile);
  return eject_[tile.value()];
}

const std::vector<TileId>& Platform::router_tiles(RouterId router) const {
  require(router.valid() && router.value() < router_count(),
          "router id out of range");
  return router_tiles_[router.value()];
}

std::uint64_t Platform::tile_clock_hz(TileId tile) const {
  return tile_type(this->tile(tile).type).clock_hz;
}

std::uint64_t Platform::cycles_to_ps(TileId tile, std::uint64_t cycles) const {
  const std::uint64_t hz = tile_clock_hz(tile);
  return cycles * 1'000'000'000'000ull / hz;
}

void Platform::check_type(TileTypeId id) const {
  require(id.valid() && id.value() < types_.size(),
          "tile type id out of range");
}

void Platform::check_tile(TileId id) const {
  require(id.valid() && id.value() < tiles_.size(), "tile id out of range");
}

void Platform::check_link(LinkId id) const {
  require(id.valid() && id.value() < links_.size(), "link id out of range");
}

}  // namespace rtsm::arch
