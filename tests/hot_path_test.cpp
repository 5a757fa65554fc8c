// Admission hot path: delta-refresh snapshots, version-gated commits and
// the shared NoC route cache. The central claims under test are exactness
// claims, so the refresh tests compare states *bit for bit*, accessor by
// accessor: refresh_snapshot_into() must reproduce a full copy, and a
// cached route must reproduce the live search.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/mapper.hpp"
#include "core/migration.hpp"
#include "core/resource_state.hpp"
#include "core/spatial_mapper.hpp"
#include "noc/route.hpp"
#include "noc/route_cache.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/runtime_manager.hpp"
#include "test_helpers.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

/// Compute-only pipeline (no IO fixtures), so many instances can churn on
/// the small platform's four compute tiles. Needs stages >= 2: a lone
/// fixtureless stage would have a port-less implementation.
std::shared_ptr<const kpn::Application> compute_app(std::uint32_t stages) {
  return std::make_shared<const kpn::Application>(test::pipeline_app(
      {.stages = stages, .little_wcet_cc = 400, .with_fixtures = false}));
}

/// Exact equality of two residual states, observed through the public
/// accessors (operator== with a diagnostic per quantity). This is the
/// contract of refresh_snapshot_into(): a delta-refreshed scratch replays
/// the source's own mutation history through the same code paths.
void expect_bit_identical(const core::ResourceState& a,
                          const core::ResourceState& b) {
  ASSERT_EQ(&a.platform(), &b.platform());
  for (const TileId tile : a.platform().tile_ids()) {
    ASSERT_EQ(a.utilization(tile), b.utilization(tile))
        << "utilization diverged on tile " << tile.value();
    ASSERT_EQ(a.memory_used(tile), b.memory_used(tile))
        << "memory diverged on tile " << tile.value();
    ASSERT_EQ(a.processes_hosted(tile), b.processes_hosted(tile))
        << "process count diverged on tile " << tile.value();
  }
  for (std::uint32_t l = 0; l < a.platform().link_count(); ++l) {
    const LinkId link{l};
    ASSERT_EQ(a.links().reserved(link), b.links().reserved(link))
        << "link reservation diverged on link " << l;
  }
}

/// One random mutation of @p state drawn from all five journaled ops
/// (tile reserve/release/saturate, link reserve/release). Reservations are
/// guarded by fits checks (reserve throws on over-booking); releases are
/// capped at what is booked (an over-release throws).
void random_mutation(core::ResourceState& state, std::mt19937& rng) {
  const arch::Platform& platform = state.platform();
  const std::vector<TileId> tiles = platform.tile_ids();
  std::uniform_int_distribution<std::size_t> tile_pick(0, tiles.size() - 1);
  std::uniform_int_distribution<std::uint32_t> link_pick(
      0, static_cast<std::uint32_t>(platform.link_count()) - 1);
  std::uniform_real_distribution<double> util(0.0, 0.3);
  std::uniform_real_distribution<double> demand(0.0, 50e6);
  std::uniform_int_distribution<std::uint64_t> memory(0, 8 * 1024);
  std::uniform_int_distribution<int> op_pick(0, 99);

  const int op = op_pick(rng);
  if (op < 35) {
    const TileId tile = tiles[tile_pick(rng)];
    const double u = util(rng);
    const std::uint64_t m = memory(rng);
    if (state.tile_fits(tile, u, m, 0)) state.reserve_tile(tile, u, m, 0);
  } else if (op < 60) {
    const TileId tile = tiles[tile_pick(rng)];
    state.release_tile(tile, std::min(util(rng), state.utilization(tile)),
                       std::min(memory(rng), state.memory_used(tile)), 0);
  } else if (op < 63) {
    state.saturate_tile(tiles[tile_pick(rng)]);
  } else if (op < 85) {
    const LinkId link{link_pick(rng)};
    const double d = demand(rng);
    if (state.links().fits(link, d)) state.links().reserve(link, d);
  } else {
    const LinkId link{link_pick(rng)};
    state.links().release(link,
                          std::min(demand(rng), state.links().reserved(link)));
  }
}

// ------------------------------------------------- delta-refresh exactness --

TEST(HotPathRefresh, DeltaRefreshIsBitIdenticalToFullCopy) {
  // Property test: under a randomized mutation stream — including journal
  // wraps — a refreshed scratch is indistinguishable from a fresh full
  // copy, through every accessor, with exact float equality.
  const auto platform = test::small_platform();
  core::ResourceState live(platform);
  live.enable_journal(48);  // small on purpose: bursts below wrap the ring
  core::ResourceState scratch(platform);

  std::mt19937 rng(0x5eed);
  std::uniform_int_distribution<int> gap(1, 7);
  for (int round = 0; round < 400; ++round) {
    // Mostly short gaps (delta path); every 25th round a burst longer than
    // the journal capacity, forcing the full-copy fallback.
    // A reserve op whose fits-guard failed is a no-op, so a round may
    // leave the version untouched — that is fine, the refresh is then a
    // zero-entry replay. Wrap bursts pair every random op with a release
    // (which always journals, even of nothing) so the ring is guaranteed
    // to wrap past the 48-entry capacity.
    const bool wrap_burst = round % 25 == 24;
    const int mutations = wrap_burst ? 50 : gap(rng);
    for (int i = 0; i < mutations; ++i) {
      random_mutation(live, rng);
      if (wrap_burst) {
        const TileId tile = platform.tile_ids()[i % platform.tile_count()];
        live.release_tile(tile, std::min(0.01, live.utilization(tile)),
                          std::min<std::uint64_t>(16, live.memory_used(tile)),
                          0);
      }
    }

    live.refresh_snapshot_into(scratch);
    ASSERT_TRUE(scratch.synced_with(live));

    const core::ResourceState full = live.snapshot();
    expect_bit_identical(scratch, full);
    expect_bit_identical(scratch, live);
  }

  const core::RefreshStats stats = live.refresh_stats();
  EXPECT_GT(stats.delta_refreshes, 300u) << "delta fast path barely taken";
  // One full copy for the cold scratch plus one per wrap burst.
  EXPECT_GE(stats.full_copies, 16u);
  EXPECT_GT(stats.entries_replayed, 0u);
}

TEST(HotPathRefresh, MutatedScratchFallsBackToFullCopy) {
  // A scratch that diverged locally (its token is dropped by its own
  // mutation) must not be delta-patched — the journal describes the
  // source's history, not the scratch's.
  const auto platform = test::small_platform();
  core::ResourceState live(platform);
  live.enable_journal();
  core::ResourceState scratch(platform);
  live.refresh_snapshot_into(scratch);
  const std::uint64_t full_copies = live.refresh_stats().full_copies;

  scratch.reserve_tile(platform.tile_ids().front(), 0.5, 1024, 0);
  EXPECT_FALSE(scratch.synced_with(live));

  live.reserve_tile(platform.tile_ids().back(), 0.25, 512, 0);
  live.refresh_snapshot_into(scratch);
  EXPECT_EQ(live.refresh_stats().full_copies, full_copies + 1);
  EXPECT_TRUE(scratch.synced_with(live));
  expect_bit_identical(scratch, live.snapshot());
}

TEST(HotPathRefresh, SyncTokenSurvivesOnlyUntilEitherSideMutates) {
  const auto platform = test::small_platform();
  core::ResourceState live(platform);
  live.enable_journal();
  core::ResourceState scratch(platform);

  live.refresh_snapshot_into(scratch);
  EXPECT_TRUE(scratch.synced_with(live));

  // Source moves on: the token names a stale version.
  live.saturate_tile(platform.tile_ids().front());
  EXPECT_FALSE(scratch.synced_with(live));

  // Delta refresh catches up and re-arms.
  live.refresh_snapshot_into(scratch);
  EXPECT_TRUE(scratch.synced_with(live));
  const core::RefreshStats stats = live.refresh_stats();
  EXPECT_GE(stats.delta_refreshes, 1u);
}

// --------------------------------------------------- version-gated commits --

TEST(HotPathGate, GatedManagerMatchesAlwaysValidatingSerialManager) {
  // Equivalence: the same deterministic admit/release sequence through
  //  (a) the concurrent manager with workers == 0 — single-threaded, so
  //      every commit takes the version-gated fast path (no mapping_fits
  //      re-validation under the lock), and
  //  (b) the serial RuntimeManager, which always screens every plan with
  //      mapping_fits before committing.
  // Decisions and final bookkeeping must be identical.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager gated(platform, {.mapper = paper_mapper()},
                                 {.workers = 0});
  RuntimeManager validating(platform, {.mapper = paper_mapper()});

  std::vector<AppId> gated_running;
  std::vector<AppId> validating_running;
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint32_t> stages(2, 3);
  for (int step = 0; step < 60; ++step) {
    if (step % 3 == 2 && !gated_running.empty()) {
      EXPECT_TRUE(gated.release(gated_running.front()));
      EXPECT_TRUE(validating.release(validating_running.front()));
      gated_running.erase(gated_running.begin());
      validating_running.erase(validating_running.begin());
      continue;
    }
    const auto app = compute_app(stages(rng));
    const AdmitOutcome a = gated.admit(*app);
    const AdmitOutcome b = validating.admit(*app);
    ASSERT_EQ(a.status, b.status) << "gate changed an admission decision";
    if (a.status == AdmitStatus::Admitted) {
      gated_running.push_back(a.app_id);
      validating_running.push_back(b.app_id);
    }
  }

  EXPECT_TRUE(gated.state_snapshot() == validating.state())
      << "gated and validating managers booked different residual state";

  const AdmissionStats stats = gated.stats();
  EXPECT_GT(stats.gated_commits, 0u) << "single-threaded commits should gate";
  EXPECT_EQ(stats.validated_commits, 0u)
      << "nothing raced, so no commit should have needed re-validation";
  EXPECT_EQ(stats.gated_commits, stats.admitted);
}

TEST(HotPathGate, CommittedMappingsAlwaysFitASerialReplay) {
  // Soundness: whatever mix of gated and validated commits the race
  // produced, every running mapping must fit a serial replay — i.e. the
  // gate never admitted a plan that full mapping_fits would reject.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 64, .max_batch = 4});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (std::uint32_t i = 0; i < 6; ++i) (void)manager.admit(*app);
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    ASSERT_TRUE(core::mapping_fits(replayed, *manager.app_of(id),
                                   manager.mapping_of(id)))
        << "a committed mapping does not fit a serial replay";
    core::commit_mapping(replayed, *manager.app_of(id), manager.mapping_of(id));
  }
  EXPECT_TRUE(manager.state_snapshot() == replayed);

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 48u);
  // Every admission commits exactly once, either gated or re-validated.
  EXPECT_EQ(stats.gated_commits + stats.validated_commits, stats.admitted);
}

// ------------------------------------------------- 8-thread churn (TSan) --

TEST(HotPathStress, EightThreadChurnDeltaRefreshesAndStaysCoherent) {
  // The hot path under real contention: 8 client threads admitting and
  // releasing against a 4-worker pool while observers poll state_snapshot()
  // and stats(). Run under TSan in CI; the oracle is a serial replay.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 128, .max_batch = 4});

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)manager.state_snapshot();
      (void)manager.stats();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      const auto app = compute_app(2 + t % 2);
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < 12; ++i) {
        const AdmitOutcome outcome = manager.admit(*app);
        if (outcome.status == AdmitStatus::Admitted) {
          mine.push_back(outcome.app_id);
        }
        if (mine.size() > 1) {  // churn: keep at most one instance alive
          EXPECT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) EXPECT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id), manager.mapping_of(id));
  }
  EXPECT_TRUE(manager.state_snapshot() == replayed)
      << "concurrent bookkeeping diverged from a serial replay";

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 96u);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.snapshot_delta_refreshes, 0u)
      << "worker scratches never took the delta fast path";
  EXPECT_EQ(stats.gated_commits + stats.validated_commits, stats.admitted);
  EXPECT_GT(stats.snapshot_time_us + stats.map_time_us + stats.commit_time_us,
            0.0);
}

// ------------------------------------------------------- route-cache memo --

TEST(RouteCacheIdentity, CachedRoutesMatchLiveSearchUnderChangingLoad) {
  // The cache's contract is bit-identity with the uncached search — for
  // both policies, across load mutations that invalidate cached routes.
  const auto platform = test::small_platform();
  noc::LinkLoad load(platform);
  noc::RouteCache cache;
  const std::vector<TileId> tiles = platform.tile_ids();

  std::mt19937 rng(0xcafe);
  std::uniform_int_distribution<std::size_t> pick(0, tiles.size() - 1);
  std::uniform_real_distribution<double> demand(1e6, 60e6);
  for (int i = 0; i < 300; ++i) {
    const TileId src = tiles[pick(rng)];
    const TileId dst = tiles[pick(rng)];
    const double d = demand(rng);
    for (const noc::RoutePolicy policy :
         {noc::RoutePolicy::Shortest, noc::RoutePolicy::Xy}) {
      const auto cached = cache.route(load, policy, src, dst, d);
      const auto live = policy == noc::RoutePolicy::Shortest
                            ? noc::route_shortest(load, src, dst, d)
                            : noc::route_xy(load, src, dst, d);
      ASSERT_EQ(cached.has_value(), live.has_value());
      if (cached.has_value()) {
        EXPECT_EQ(cached->src_tile, live->src_tile);
        EXPECT_EQ(cached->dst_tile, live->dst_tile);
        EXPECT_EQ(cached->links, live->links)
            << "cached route differs from the live search";
      }
    }
    // Occasionally book or drop load so later lookups re-validate cached
    // routes against a genuinely different network.
    if (i % 7 == 3) {
      const auto path = noc::route_shortest(load, src, dst, d);
      if (path.has_value() && !path->is_intra_tile()) {
        load.reserve_path(*path, d);
      }
    }
    if (i % 23 == 11) load = noc::LinkLoad(platform);  // drain everything
  }

  const noc::RouteCacheStats stats = cache.stats();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.hit_rate(), 0.5) << "warm lookups should mostly hit";
}

TEST(RouteCacheIdentity, CongestionFallsBackToLiveSearchIdentically) {
  const auto platform = test::small_platform();
  noc::LinkLoad load(platform);
  noc::RouteCache cache;
  const TileId src = platform.tile_ids().front();
  const TileId dst = platform.tile_ids().back();
  const double d = 1e6;

  const auto warm = cache.route(load, noc::RoutePolicy::Shortest, src, dst, d);
  ASSERT_TRUE(warm.has_value());
  ASSERT_FALSE(warm->links.empty());

  // Saturate one link of the cached route: the cached entry is no longer
  // admissible, so the lookup must fall back — and still match the live
  // search, which detours (or fails) the same way.
  const LinkId blocked = warm->links[warm->links.size() / 2];
  load.reserve(blocked, load.residual(blocked));
  const auto cached = cache.route(load, noc::RoutePolicy::Shortest, src, dst, d);
  const auto live = noc::route_shortest(load, src, dst, d);
  ASSERT_EQ(cached.has_value(), live.has_value());
  if (cached.has_value()) {
    EXPECT_EQ(cached->links, live->links);
  }
  EXPECT_GT(cache.stats().fallbacks, 0u);
}

TEST(RouteCacheIdentity, CachedMapperProducesIdenticalMappings) {
  // End-to-end: a mapper with the route cache enabled (the default) and
  // one with caching disabled must produce the same plan from the same
  // residual state — including on a pre-loaded network.
  const auto platform = test::small_platform();
  const auto cached_mapper = paper_mapper();
  core::MapperConfig uncached_config;
  uncached_config.cache_routes = false;
  const core::SpatialMapper uncached_mapper(uncached_config);
  ASSERT_NE(cached_mapper->route_cache(), nullptr);
  ASSERT_EQ(uncached_mapper.route_cache(), nullptr);

  core::ResourceState state(platform);
  const auto first = compute_app(2);
  const auto second = compute_app(2);

  const core::MappingResult warmup = cached_mapper->map(*first, state);
  ASSERT_TRUE(warmup.success);
  core::commit_mapping(state, *first, warmup.mapping);

  const core::MappingResult with_cache = cached_mapper->map(*second, state);
  const core::MappingResult without = uncached_mapper.map(*second, state);
  ASSERT_EQ(with_cache.success, without.success);
  ASSERT_TRUE(with_cache.success);
  EXPECT_TRUE(
      core::diff_mappings(*second, with_cache.mapping, without.mapping).empty())
      << "route caching changed the plan";
  EXPECT_EQ(with_cache.energy_nj_per_symbol, without.energy_nj_per_symbol);
}

}  // namespace
}  // namespace rtsm::runtime
