// Exact bookkeeping: utilisation and link rates are booked as fixed-point
// integers (util/fixed_point.hpp), so the residual state balances exactly
// whatever the order of commits and releases.
//
// The soak commits and releases mapper-produced mappings of seeded random
// applications on a 16x16 mesh (the X10 recipe) 100,000 times each, in
// random order, while journal delta refreshes and lease-masked snapshots
// follow the live state. After every step the delta-refreshed scratches
// must equal the live state, and at the end the live state must equal a
// pristine one, with ==. The quantization tests pin the bounds documented
// next to quantize_utilization() and quantize_rate().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "core/resource_state.hpp"
#include "core/spatial_mapper.hpp"
#include "kpn/application.hpp"
#include "util/error.hpp"
#include "util/fixed_point.hpp"

namespace rtsm {
namespace {

// ----------------------------------------------------------- quantization

TEST(FixedPoint, QuantizeRoundsTowardZeroWithinOneUnit) {
  std::mt19937_64 rng(0xf1fed);
  std::uniform_real_distribution<double> fraction(0.0, 1.0);
  std::uniform_real_distribution<double> rate(0.0, 1e9);
  for (int i = 0; i < 100'000; ++i) {
    const double u = fraction(rng);
    const double scaled_u = u * 0x1p48;  // exact: a power-of-two scale
    const UtilUnits qu = quantize_utilization(u);
    EXPECT_LE(static_cast<double>(qu), scaled_u);
    EXPECT_LT(scaled_u, static_cast<double>(qu) + 1.0);
    EXPECT_EQ(quantize_utilization(utilization_of(qu)), qu);

    const double r = rate(rng);
    const double scaled_r = r * 0x1p20;
    const RateUnits qr = quantize_rate(r);
    EXPECT_LE(static_cast<double>(qr), scaled_r);
    EXPECT_LT(scaled_r, static_cast<double>(qr) + 1.0);
    EXPECT_EQ(quantize_rate(rate_of(qr)), qr);
  }
  EXPECT_EQ(quantize_utilization(1.0), kFullTile);
  EXPECT_EQ(quantize_utilization(0.0), 0u);
  EXPECT_EQ(quantize_utilization(1e300), kMaxUnits);
  EXPECT_EQ(quantize_rate(std::numeric_limits<double>::infinity()),
            kMaxUnits);
  EXPECT_THROW((void)quantize_utilization(-1e-300), Error);
  EXPECT_THROW((void)quantize_rate(std::nan("")), Error);
}

TEST(FixedPoint, DocumentedOverCommitBounds) {
  // Each reservation is booked less than one unit short, so S bookings
  // hide less than S units. The documented slot and reservation counts are
  // the largest that keep that under the former 1e-9 slack.
  EXPECT_LT(281'474 * 0x1p-48, 1e-9);
  EXPECT_GT(281'475 * 0x1p-48, 1e-9);
  const double link_slack = 200e6 * 1e-9;  // default link capacity
  EXPECT_LT(209'715 * 0x1p-20, link_slack);
  EXPECT_GT(209'716 * 0x1p-20, link_slack);
}

TEST(FixedPoint, WorstOverCommitOfATileStaysWithinTheBound) {
  // S processes, each booked almost one unit short: every reservation
  // fits, the books end exactly full, and the true utilisation admitted
  // exceeds 1 by less than S units.
  constexpr std::uint32_t kSlots = 1000;
  arch::Platform p("one tile", 1, 1);
  const TileTypeId pe = p.add_tile_type("PE", 200'000'000);
  const TileId tile = p.add_tile("T", pe, 0, 0, 64 * 1024, kSlots);
  core::ResourceState state(p);

  const UtilUnits share = kFullTile / kSlots;
  const double u = (static_cast<double>(share) + 0.75) * 0x1p-48;
  ASSERT_EQ(quantize_utilization(u), share);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    ASSERT_TRUE(state.tile_fits(tile, u, 0));
    state.reserve_tile(tile, u, 0);
  }
  const UtilUnits booked = state.utilization_units(tile);
  EXPECT_EQ(booked, share * kSlots);
  EXPECT_LE(booked, kFullTile);
  const double admitted = kSlots * u;
  EXPECT_LT(admitted - 1.0, kSlots * 0x1p-48);
  EXPECT_LT(admitted - 1.0, 1e-9);
  // What is left is less than one process's share, and no slack admits
  // anything beyond the full tile.
  EXPECT_FALSE(state.tile_fits(tile, utilization_of(kFullTile - booked + 1),
                               0, 0));
  EXPECT_TRUE(state.tile_fits(tile, utilization_of(kFullTile - booked), 0, 0));
}

TEST(FixedPoint, ReleasesUndoReservesInAnyOrder) {
  arch::Platform p("one tile", 1, 1);
  const TileTypeId pe = p.add_tile_type("PE", 200'000'000);
  const TileId tile = p.add_tile("T", pe, 0, 0, 64 * 1024, 64);
  core::ResourceState state(p);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> util(0.0, 1.0 / 64);
  std::vector<double> booked;
  for (int i = 0; i < 64; ++i) {
    booked.push_back(util(rng));
    state.reserve_tile(tile, booked.back(), 16);
  }
  std::shuffle(booked.begin(), booked.end(), rng);
  for (const double u : booked) state.release_tile(tile, u, 16);
  EXPECT_TRUE(state == core::ResourceState(p));
  EXPECT_EQ(state.utilization(tile), 0.0);
}

// ------------------------------------------------------------------- soak

/// The X10 mesh: IO corners, the rest alternating quad-slot ARM and
/// single-context MONTIUM tiles.
arch::Platform x10_mesh(std::uint32_t n) {
  arch::Platform p("soak mesh", n, n);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("SRC", io, 0, 0, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, n - 1, n - 1, 64 * 1024, /*process_slots=*/8);
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
      const bool is_arm = (x + y) % 2 == 0;
      std::string name = is_arm ? "ARM" : "MONT";
      name += std::to_string(x) + "_" + std::to_string(y);
      p.add_tile(name, is_arm ? arm : montium, x, y, 64 * 1024,
                 is_arm ? 4 : 1);
    }
  }
  return p;
}

/// A compute pipeline with irregular WCETs, token counts and period, so
/// its utilisations and link rates are doubles no sum reproduces exactly.
std::shared_ptr<const kpn::Application> random_app(std::mt19937_64& rng,
                                                   int index) {
  std::uniform_int_distribution<std::uint32_t> stages_of(2, 4);
  std::uniform_int_distribution<std::uint64_t> period_of(3000, 5000);
  std::uniform_int_distribution<std::uint32_t> tokens_of(4, 32);
  std::uniform_int_distribution<std::uint32_t> wcet_of(60, 700);
  kpn::QosConstraints qos;
  qos.symbol_period_ns = period_of(rng);
  kpn::Application app("soak" + std::to_string(index), qos);
  const std::uint32_t stages = stages_of(rng);
  std::vector<ProcessId> procs;
  for (std::uint32_t i = 0; i < stages; ++i) {
    procs.push_back(app.add_process("S" + std::to_string(i)));
  }
  for (std::uint32_t i = 0; i + 1 < stages; ++i) {
    app.connect(procs[i], procs[i + 1], tokens_of(rng));
  }
  for (const ProcessId pid : procs) {
    for (const char* type : {"ARM", "MONTIUM"}) {
      kpn::Implementation im;
      im.name = app.process(pid).name + "@" + type;
      im.tile_type = type;
      im.wcet_cc = {wcet_of(rng)};
      for (const ChannelId cid : app.in_channels(pid)) {
        im.inputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
      }
      for (const ChannelId cid : app.out_channels(pid)) {
        im.outputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
      }
      im.energy_nj_per_symbol = type[0] == 'A' ? 100.0 : 40.0;
      im.memory_bytes = 1024 + 512 * (wcet_of(rng) % 8);
      app.add_implementation(pid, std::move(im));
    }
  }
  app.validate();
  return std::make_shared<const kpn::Application>(std::move(app));
}

struct Placed {
  std::shared_ptr<const kpn::Application> app;
  core::Mapping mapping;
};

/// Mapper-produced placements spread over the mesh: each app is mapped on
/// a state where every tile outside a random 4x4 window is saturated.
std::vector<Placed> placement_pool(const arch::Platform& platform,
                                   std::size_t size, std::mt19937_64& rng) {
  const core::SpatialMapper mapper;
  std::uniform_int_distribution<std::uint32_t> corner(
      0, platform.mesh_width() - 4);
  std::vector<Placed> pool;
  for (int index = 0; pool.size() < size; ++index) {
    const auto app = random_app(rng, index);
    core::ResourceState window(platform);
    const std::uint32_t x0 = corner(rng);
    const std::uint32_t y0 = corner(rng);
    for (const TileId tid : platform.tile_ids()) {
      const arch::Tile& t = platform.tile(tid);
      if (t.x < x0 || t.x >= x0 + 4 || t.y < y0 || t.y >= y0 + 4) {
        window.saturate_tile(tid);
      }
    }
    const core::MappingResult result = mapper.map(*app, window);
    if (result.success) pool.push_back({app, result.mapping});
  }
  return pool;
}

TEST(BookkeepingSoak, HundredThousandPairsBalanceExactly) {
  const arch::Platform platform = x10_mesh(16);
  std::mt19937_64 rng(0xb00c);
  const std::vector<Placed> pool = placement_pool(platform, 48, rng);

  core::ResourceState live(platform);
  live.enable_journal(256);
  core::ResourceState every_step(platform);  // refreshed after each step
  core::ResourceState lagging(platform);     // refreshed every few steps
  core::ResourceState masked(platform);      // a lease stripe's snapshot
  std::vector<std::size_t> running;          // pool indices, committed

  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<std::uint32_t> lag(1, 400);
  std::uniform_int_distribution<std::uint32_t> stripe_of(0, 3);
  constexpr std::uint64_t kPairs = 100'000;
  std::uint64_t commits = 0;
  std::uint64_t releases = 0;
  std::uint32_t next_lagging_refresh = lag(rng);
  for (std::uint64_t step = 0; commits < kPairs || !running.empty(); ++step) {
    const std::size_t candidate = pick(rng);
    const bool want_commit = commits < kPairs && running.size() < 24;
    if (want_commit && core::mapping_fits(live, *pool[candidate].app,
                                          pool[candidate].mapping)) {
      core::commit_mapping(live, *pool[candidate].app,
                           pool[candidate].mapping);
      running.push_back(candidate);
      ++commits;
    } else if (!running.empty()) {
      const std::size_t victim = rng() % running.size();
      const Placed& placed = pool[running[victim]];
      core::release_mapping(live, *placed.app, placed.mapping);
      running[victim] = running.back();
      running.pop_back();
      ++releases;
    }

    live.refresh_snapshot_into(every_step);
    if (!(every_step == live)) {
      FAIL() << "delta-refreshed scratch diverged at step " << step;
    }
    if (--next_lagging_refresh == 0) {
      live.refresh_snapshot_into(lagging);
      if (!(lagging == live)) {
        FAIL() << "lagging scratch diverged at step " << step;
      }
      next_lagging_refresh = lag(rng);
    }
    if (step % 97 == 0) {
      // A lease-masked snapshot saturates the tiles outside its stripe;
      // its next refresh must restore the live books exactly.
      live.refresh_snapshot_into(masked);
      if (!(masked == live)) {
        FAIL() << "masked scratch diverged at step " << step;
      }
      const std::uint32_t stripe = stripe_of(rng);
      for (const TileId tid : platform.tile_ids()) {
        if (platform.tile(tid).x / 4 != stripe) masked.saturate_tile(tid);
      }
    }
  }

  EXPECT_EQ(commits, kPairs);
  EXPECT_EQ(releases, kPairs);
  EXPECT_TRUE(live == core::ResourceState(platform))
      << "a release did not undo its commit exactly";
  const core::RefreshStats stats = live.refresh_stats();
  EXPECT_GT(stats.delta_refreshes, 2 * kPairs);
  EXPECT_GT(stats.full_copies, 100u) << "masked and wrapped scratches";

  // An over-release fails instead of clamping, and leaves the books alone.
  const core::ResourceState pristine(platform);
  for (const Placed& placed : pool) {
    core::ResourceState state(platform);
    EXPECT_THROW(core::release_mapping(state, *placed.app, placed.mapping),
                 Error);
  }
  const TileId tile = platform.tile_ids()[1];
  EXPECT_THROW(live.release_tile(tile, utilization_of(1), 0, 0), Error);
  EXPECT_THROW(live.release_tile(tile, 0.0, 1, 0), Error);
  EXPECT_THROW(live.release_tile(tile, 0.0, 0, 1), Error);
  EXPECT_THROW(live.links().release_units(LinkId{0}, 1), Error);
  EXPECT_TRUE(live == pristine);
}

}  // namespace
}  // namespace rtsm
