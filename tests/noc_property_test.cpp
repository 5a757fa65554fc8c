#include <gtest/gtest.h>

#include "arch/platform.hpp"
#include "core/criteria.hpp"
#include "noc/link_load.hpp"
#include "noc/route.hpp"
#include "util/rng.hpp"

namespace rtsm::noc {
namespace {

/// Random mesh with a tile on every router.
arch::Platform random_mesh(Rng& rng) {
  const auto w = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  const auto h = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  arch::Platform p("p", w, h);
  const TileTypeId t = p.add_tile_type("T");
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      std::string name = "t";
      name += std::to_string(x);
      name += '_';
      name += std::to_string(y);
      p.add_tile(name, t, x, y);
    }
  }
  return p;
}

/// Validates structural path invariants directly (mirrors what
/// core::check_path_structure enforces for mapped channels).
void expect_structurally_valid(const arch::Platform& p, const Path& path) {
  if (path.is_intra_tile()) {
    EXPECT_EQ(path.src_tile, path.dst_tile);
    return;
  }
  ASSERT_GE(path.links.size(), 2u);
  const arch::Link& first = p.link(path.links.front());
  EXPECT_EQ(first.kind, arch::LinkKind::Inject);
  EXPECT_EQ(first.tile, path.src_tile);
  RouterId at = first.to_router;
  for (std::size_t i = 1; i + 1 < path.links.size(); ++i) {
    const arch::Link& l = p.link(path.links[i]);
    ASSERT_EQ(l.kind, arch::LinkKind::RouterToRouter);
    EXPECT_EQ(l.from_router, at);
    at = l.to_router;
  }
  const arch::Link& last = p.link(path.links.back());
  EXPECT_EQ(last.kind, arch::LinkKind::Eject);
  EXPECT_EQ(last.tile, path.dst_tile);
  EXPECT_EQ(last.from_router, at);
}

class NocProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NocProperty, RoutesAreStructurallyValidAndMinimal) {
  Rng rng(GetParam());
  const arch::Platform p = random_mesh(rng);
  LinkLoad load(p);
  for (int trial = 0; trial < 20; ++trial) {
    const TileId a{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const TileId b{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const auto path = route_shortest(load, a, b, 1.0);
    ASSERT_TRUE(path);
    expect_structurally_valid(p, *path);
    EXPECT_EQ(path->rr_hops(p), p.manhattan(a, b));
  }
}

TEST_P(NocProperty, XyAgreesWithShortestOnEmptyNetwork) {
  Rng rng(GetParam() + 500);
  const arch::Platform p = random_mesh(rng);
  LinkLoad load(p);
  for (int trial = 0; trial < 20; ++trial) {
    const TileId a{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const TileId b{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const auto xy = route_xy(load, a, b, 1.0);
    const auto sp = route_shortest(load, a, b, 1.0);
    ASSERT_TRUE(xy);
    ASSERT_TRUE(sp);
    EXPECT_EQ(xy->rr_hops(p), sp->rr_hops(p));
    expect_structurally_valid(p, *xy);
  }
}

TEST_P(NocProperty, ReservationsRestoreExactlyOnRelease) {
  Rng rng(GetParam() + 1000);
  const arch::Platform p = random_mesh(rng);
  LinkLoad load(p);
  const double cap = p.link(LinkId{0}).capacity_tokens_per_s;

  std::vector<std::pair<Path, double>> routed;
  for (int trial = 0; trial < 30; ++trial) {
    const TileId a{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const TileId b{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const double demand = rng.uniform(0.01, 0.2) * cap;
    const auto path = route_shortest(load, a, b, demand);
    if (!path) continue;
    load.reserve_path(*path, demand);
    routed.push_back({*path, demand});
  }
  for (const auto& [path, demand] : routed) load.release_path(path, demand);
  EXPECT_TRUE(load == LinkLoad(p));
}

TEST_P(NocProperty, IncrementalRoutingNeverOverbooks) {
  Rng rng(GetParam() + 2000);
  const arch::Platform p = random_mesh(rng);
  LinkLoad load(p);
  const double cap = p.link(LinkId{0}).capacity_tokens_per_s;

  for (int trial = 0; trial < 60; ++trial) {
    const TileId a{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const TileId b{
        static_cast<TileId::value_type>(rng.pick_index(p.tile_count()))};
    const double demand = rng.uniform(0.05, 0.5) * cap;
    const auto path = route_shortest(load, a, b, demand);
    if (path) load.reserve_path(*path, demand);
  }
  for (std::size_t l = 0; l < p.link_count(); ++l) {
    const LinkId lid{static_cast<LinkId::value_type>(l)};
    EXPECT_LE(load.reserved_units(lid), load.capacity_units(lid));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NocProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace rtsm::noc
