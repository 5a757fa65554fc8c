#include <gtest/gtest.h>

#include <string>

#include "arch/platform.hpp"
#include "noc/link_load.hpp"
#include "noc/route.hpp"
#include "util/error.hpp"

namespace rtsm::noc {
namespace {

/// 3x3 mesh with one tile on every router.
struct Fixture {
  arch::Platform platform{"p", 3, 3};
  Fixture() {
    const TileTypeId t = platform.add_tile_type("T");
    for (std::uint32_t y = 0; y < 3; ++y) {
      for (std::uint32_t x = 0; x < 3; ++x) {
        platform.add_tile(name(x, y), t, x, y);
      }
    }
  }
  static std::string name(std::uint32_t x, std::uint32_t y) {
    std::string name = "t";
    name += std::to_string(x);
    name += std::to_string(y);
    return name;
  }
  TileId tile(std::uint32_t x, std::uint32_t y) const {
    return platform.tile_by_name(name(x, y));
  }
};

TEST(LinkLoad, ReserveAndRelease) {
  Fixture f;
  LinkLoad load(f.platform);
  const LinkId l{0};
  const double cap = f.platform.link(l).capacity_tokens_per_s;
  EXPECT_DOUBLE_EQ(load.residual(l), cap);
  load.reserve(l, cap / 2);
  EXPECT_DOUBLE_EQ(load.reserved(l), cap / 2);
  load.release(l, cap / 2);
  EXPECT_DOUBLE_EQ(load.reserved(l), 0.0);
}

TEST(LinkLoad, OverReservationThrows) {
  Fixture f;
  LinkLoad load(f.platform);
  const LinkId l{0};
  const double cap = f.platform.link(l).capacity_tokens_per_s;
  EXPECT_THROW(load.reserve(l, cap * 1.5), Error);
}

TEST(LinkLoad, ReleaseClampsAtZero) {
  Fixture f;
  LinkLoad load(f.platform);
  const LinkId l{0};
  load.reserve(l, 10.0);
  load.release(l, 100.0);
  EXPECT_DOUBLE_EQ(load.reserved(l), 0.0);
}

TEST(Route, SameTileIsEmptyPath) {
  Fixture f;
  LinkLoad load(f.platform);
  const auto path = route_shortest(load, f.tile(1, 1), f.tile(1, 1), 1.0);
  ASSERT_TRUE(path);
  EXPECT_TRUE(path->is_intra_tile());
  EXPECT_EQ(path->rr_hops(f.platform), 0u);
}

TEST(Route, AdjacentTiles) {
  Fixture f;
  LinkLoad load(f.platform);
  const auto path = route_shortest(load, f.tile(0, 0), f.tile(1, 0), 1.0);
  ASSERT_TRUE(path);
  EXPECT_EQ(path->rr_hops(f.platform), 1u);
  EXPECT_EQ(path->links.size(), 3u);  // inject + 1 RR + eject
  const auto routers = path->routers(f.platform);
  ASSERT_EQ(routers.size(), 2u);
  EXPECT_EQ(routers.front(), f.platform.router_at(0, 0));
  EXPECT_EQ(routers.back(), f.platform.router_at(1, 0));
}

TEST(Route, ShortestHopCountEqualsManhattan) {
  Fixture f;
  LinkLoad load(f.platform);
  for (std::uint32_t x = 0; x < 3; ++x) {
    for (std::uint32_t y = 0; y < 3; ++y) {
      const auto path = route_shortest(load, f.tile(0, 0), f.tile(x, y), 1.0);
      ASSERT_TRUE(path);
      EXPECT_EQ(path->rr_hops(f.platform),
                f.platform.manhattan(f.tile(0, 0), f.tile(x, y)));
    }
  }
}

TEST(Route, Deterministic) {
  Fixture f;
  LinkLoad load(f.platform);
  const auto p1 = route_shortest(load, f.tile(0, 0), f.tile(2, 2), 1.0);
  const auto p2 = route_shortest(load, f.tile(0, 0), f.tile(2, 2), 1.0);
  ASSERT_TRUE(p1);
  ASSERT_TRUE(p2);
  EXPECT_EQ(p1->links, p2->links);
}

TEST(Route, DetoursAroundCongestion) {
  Fixture f;
  LinkLoad load(f.platform);
  // Saturate the direct link R(0,0)->R(1,0).
  const RouterId r00 = f.platform.router_at(0, 0);
  for (const LinkId l : f.platform.router_out_links(r00)) {
    if (f.platform.link(l).to_router == f.platform.router_at(1, 0)) {
      load.reserve(l, f.platform.link(l).capacity_tokens_per_s);
    }
  }
  const auto path = route_shortest(load, f.tile(0, 0), f.tile(1, 0), 1.0);
  ASSERT_TRUE(path);  // detours via (0,1)
  EXPECT_EQ(path->rr_hops(f.platform), 3u);
}

TEST(Route, FailsWhenNoCapacityAnywhere) {
  Fixture f;
  LinkLoad load(f.platform);
  for (std::size_t l = 0; l < f.platform.link_count(); ++l) {
    const LinkId lid{static_cast<LinkId::value_type>(l)};
    if (f.platform.link(lid).kind == arch::LinkKind::RouterToRouter) {
      load.reserve(lid, f.platform.link(lid).capacity_tokens_per_s);
    }
  }
  EXPECT_FALSE(route_shortest(load, f.tile(0, 0), f.tile(2, 2), 1.0));
}

TEST(Route, FailsOnSaturatedInjectLink) {
  Fixture f;
  LinkLoad load(f.platform);
  const LinkId inj = f.platform.inject_link(f.tile(0, 0));
  load.reserve(inj, f.platform.link(inj).capacity_tokens_per_s);
  EXPECT_FALSE(route_shortest(load, f.tile(0, 0), f.tile(1, 0), 1.0));
}

TEST(Route, XyFollowsDimensionOrder) {
  Fixture f;
  LinkLoad load(f.platform);
  const auto path = route_xy(load, f.tile(0, 0), f.tile(2, 1), 1.0);
  ASSERT_TRUE(path);
  const auto routers = path->routers(f.platform);
  // X first: (0,0) (1,0) (2,0), then Y: (2,1).
  ASSERT_EQ(routers.size(), 4u);
  EXPECT_EQ(routers[0], f.platform.router_at(0, 0));
  EXPECT_EQ(routers[1], f.platform.router_at(1, 0));
  EXPECT_EQ(routers[2], f.platform.router_at(2, 0));
  EXPECT_EQ(routers[3], f.platform.router_at(2, 1));
}

TEST(Route, XyCannotDetour) {
  Fixture f;
  LinkLoad load(f.platform);
  const RouterId r00 = f.platform.router_at(0, 0);
  for (const LinkId l : f.platform.router_out_links(r00)) {
    if (f.platform.link(l).to_router == f.platform.router_at(1, 0)) {
      load.reserve(l, f.platform.link(l).capacity_tokens_per_s);
    }
  }
  EXPECT_FALSE(route_xy(load, f.tile(0, 0), f.tile(2, 0), 1.0));
  EXPECT_TRUE(route_shortest(load, f.tile(0, 0), f.tile(2, 0), 1.0));
}

TEST(Route, PathReservationRoundTrip) {
  Fixture f;
  LinkLoad load(f.platform);
  const auto path = route_shortest(load, f.tile(0, 0), f.tile(2, 2), 5.0);
  ASSERT_TRUE(path);
  const double before = load.total_reserved();
  load.reserve_path(*path, 5.0);
  EXPECT_GT(load.total_reserved(), before);
  load.release_path(*path, 5.0);
  EXPECT_DOUBLE_EQ(load.total_reserved(), before);
}

TEST(Route, DemandAwareRouting) {
  Fixture f;
  LinkLoad load(f.platform);
  const double cap = f.platform.link(LinkId{0}).capacity_tokens_per_s;
  // Fill the direct link to 60%: a 50% demand must detour, 30% fits.
  const RouterId r00 = f.platform.router_at(0, 0);
  for (const LinkId l : f.platform.router_out_links(r00)) {
    if (f.platform.link(l).to_router == f.platform.router_at(1, 0)) {
      load.reserve(l, cap * 0.6);
    }
  }
  const auto heavy =
      route_shortest(load, f.tile(0, 0), f.tile(1, 0), cap * 0.5);
  ASSERT_TRUE(heavy);
  EXPECT_EQ(heavy->rr_hops(f.platform), 3u);
  const auto light =
      route_shortest(load, f.tile(0, 0), f.tile(1, 0), cap * 0.3);
  ASSERT_TRUE(light);
  EXPECT_EQ(light->rr_hops(f.platform), 1u);
}

}  // namespace
}  // namespace rtsm::noc
