#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fragmentation.hpp"
#include "core/migration.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/defrag.hpp"
#include "runtime/runtime_manager.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rtsm {
namespace {

/// A row of four single-slot compute tiles C0..C3 with IO tiles at the
/// ends: the canonical fragmentation fixture. One-stage pipeline apps each
/// occupy exactly one compute tile, so admit/release churn leaves free
/// tiles scattered along the row and a defrag pass can compact them.
arch::Platform row_platform() {
  arch::Platform p("defrag 4x2", 4, 2);
  const TileTypeId big = p.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 200'000'000);
  p.add_tile("C0", big, 0, 0, 64 * 1024);
  p.add_tile("C1", big, 1, 0, 64 * 1024);
  p.add_tile("C2", big, 2, 0, 64 * 1024);
  p.add_tile("C3", big, 3, 0, 64 * 1024);
  p.add_tile("SRC", io, 0, 1, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, 3, 1, 64 * 1024, /*process_slots=*/8);
  return p;
}

kpn::Application one_stage_app() {
  test::PipelineSpec spec;
  spec.stages = 1;
  spec.little_wcet_cc = 0;  // BIG only
  return test::pipeline_app(spec);
}

core::ResourceState replay(const runtime::RuntimeManager& manager,
                           const arch::Platform& platform) {
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id),
                         manager.mapping_of(id));
  }
  return replayed;
}

// ---------------------------------------------------------------- metric --

TEST(Fragmentation, IdlePlatformScoresZero) {
  const auto platform = row_platform();
  const core::ResourceState state(platform);
  const auto m = core::measure_fragmentation(state);
  EXPECT_EQ(m.free_tiles, 6u);
  EXPECT_EQ(m.largest_free_region, 6u);  // the whole mesh is one region
  EXPECT_DOUBLE_EQ(m.occupancy_dispersion, 0.0);
  EXPECT_DOUBLE_EQ(m.free_scatter, 0.0);
  EXPECT_DOUBLE_EQ(m.score(), 0.0);
}

TEST(Fragmentation, ScatteredLoadScoresWorseThanPackedLoad) {
  const auto platform = row_platform();

  // Packed: C0 and C1 saturated; C2+C3+DST stay free and connected (SRC
  // sits diagonal to the row and forms its own one-tile island).
  core::ResourceState packed(platform);
  packed.saturate_tile(platform.tile_by_name("C0"));
  packed.saturate_tile(platform.tile_by_name("C1"));

  // Scattered: the same load on C0 and C2 splits the free row.
  core::ResourceState scattered(platform);
  scattered.saturate_tile(platform.tile_by_name("C0"));
  scattered.saturate_tile(platform.tile_by_name("C2"));

  const auto mp = core::measure_fragmentation(packed);
  const auto ms = core::measure_fragmentation(scattered);
  EXPECT_EQ(mp.largest_free_region, 3u);
  EXPECT_LT(ms.largest_free_region, mp.largest_free_region);
  EXPECT_GT(ms.score(), mp.score());
}

TEST(Fragmentation, DispersionPenalisesSmearedUtilisation) {
  const auto platform = row_platform();

  // 1.0 tile-units of compute smeared over four tiles...
  core::ResourceState smeared(platform);
  for (const char* name : {"C0", "C1", "C2", "C3"}) {
    smeared.reserve_tile(platform.tile_by_name(name), 0.25, 0, 0);
  }
  // ...vs. packed onto one.
  core::ResourceState dense(platform);
  dense.reserve_tile(platform.tile_by_name("C0"), 1.0, 0, 0);

  const auto m_smeared = core::measure_fragmentation(smeared);
  const auto m_dense = core::measure_fragmentation(dense);
  EXPECT_GT(m_smeared.occupancy_dispersion, 0.0);
  EXPECT_DOUBLE_EQ(m_dense.occupancy_dispersion, 0.0);
  EXPECT_GT(m_smeared.score(), m_dense.score());
}

// ---------------------------------------------------- deltas & cost model --

TEST(MappingDelta, DiffApplyReachesTargetAndRollbackRestores) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  const core::SpatialMapper mapper;

  // Plan A on the idle platform; plan B with A's tile saturated, so the
  // stage must land elsewhere and the fixture channels re-route.
  const auto plan_a = mapper.map(app, platform);
  ASSERT_TRUE(plan_a.success) << plan_a.failure;
  core::ResourceState masked(platform);
  const ProcessId stage = app.process_by_name("S0");
  masked.saturate_tile(plan_a.mapping.tile_of(stage));
  const auto plan_b = mapper.map(app, masked);
  ASSERT_TRUE(plan_b.success) << plan_b.failure;
  ASSERT_NE(plan_a.mapping.tile_of(stage), plan_b.mapping.tile_of(stage));

  const auto deltas =
      core::diff_mappings(app, plan_a.mapping, plan_b.mapping);
  ASSERT_FALSE(deltas.empty());
  EXPECT_EQ(deltas.front().kind, core::MappingDelta::Kind::MoveProcess);

  // Commit A, morph it into B delta by delta, compare against a fresh
  // commit of B; then roll back in reverse and compare against A again.
  core::ResourceState state(platform);
  core::commit_mapping(state, app, plan_a.mapping);
  core::Mapping live = plan_a.mapping;
  for (const auto& delta : deltas) {
    ASSERT_TRUE(core::apply_delta(state, app, live, delta));
  }
  EXPECT_TRUE(core::diff_mappings(app, live, plan_b.mapping).empty());
  core::ResourceState expect_b(platform);
  core::commit_mapping(expect_b, app, plan_b.mapping);
  EXPECT_TRUE(state == expect_b);

  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    core::rollback_delta(state, app, live, *it);
  }
  EXPECT_TRUE(core::diff_mappings(app, live, plan_a.mapping).empty());
  core::ResourceState expect_a(platform);
  core::commit_mapping(expect_a, app, plan_a.mapping);
  EXPECT_TRUE(state == expect_a);
}

TEST(MappingDelta, ApplyIsAtomicWhenTargetDoesNotFit) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  const core::SpatialMapper mapper;
  const auto plan = mapper.map(app, platform);
  ASSERT_TRUE(plan.success);

  core::ResourceState state(platform);
  core::commit_mapping(state, app, plan.mapping);
  const ProcessId stage = app.process_by_name("S0");
  const TileId target = platform.tile_by_name("C3");
  state.saturate_tile(target);
  const core::ResourceState before = state.snapshot();

  core::MappingDelta move;
  move.kind = core::MappingDelta::Kind::MoveProcess;
  move.process = stage;
  move.impl_before = plan.mapping.impl_of(stage);
  move.impl_after = plan.mapping.impl_of(stage);
  move.tile_before = plan.mapping.tile_of(stage);
  move.tile_after = target;

  core::Mapping live = plan.mapping;
  EXPECT_FALSE(core::apply_delta(state, app, live, move));
  EXPECT_TRUE(state == before);
  EXPECT_EQ(live.tile_of(stage), plan.mapping.tile_of(stage));
}

TEST(MigrationCostModel, CostGrowsWithDistanceAndIsZeroWhenUnmoved) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  const core::SpatialMapper mapper;
  const auto plan = mapper.map(app, platform);
  ASSERT_TRUE(plan.success);
  const ProcessId stage = app.process_by_name("S0");
  ASSERT_EQ(plan.mapping.tile_of(stage), platform.tile_by_name("C0"));

  const core::MigrationCostModel model;
  EXPECT_DOUBLE_EQ(
      model.migration_us(app, platform, plan.mapping, plan.mapping), 0.0);
  EXPECT_DOUBLE_EQ(
      model.migration_energy_nj(app, platform, plan.mapping, plan.mapping),
      0.0);

  core::Mapping near = plan.mapping;
  near.move(stage, platform.tile_by_name("C1"));
  core::Mapping far = plan.mapping;
  far.move(stage, platform.tile_by_name("C3"));
  const double near_us = model.migration_us(app, platform, plan.mapping, near);
  const double far_us = model.migration_us(app, platform, plan.mapping, far);
  EXPECT_GT(near_us, 0.0);
  EXPECT_GT(far_us, near_us);
  EXPECT_GT(model.migration_energy_nj(app, platform, plan.mapping, far),
            model.migration_energy_nj(app, platform, plan.mapping, near));
}

// --------------------------------------------------------------- planner --

TEST(DefragPlanner, PassCompactsScatteredRowAndKeepsBookkeepingExact) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()});
  std::vector<AppId> ids;
  for (int i = 0; i < 4; ++i) {
    const auto outcome = manager.admit(app);
    ASSERT_EQ(outcome.status, runtime::AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }
  // Free C1 and C3: two scattered one-tile holes.
  manager.release(ids[1]);
  manager.release(ids[3]);
  const double before =
      core::measure_fragmentation(manager.state()).score();

  const auto pass = manager.defrag_now();
  EXPECT_EQ(pass.migrations, 1u);
  EXPECT_EQ(pass.migration_failures, 0u);
  EXPECT_GT(pass.deltas_applied, 0u);
  EXPECT_GT(pass.migration_cost_us, 0.0);
  EXPECT_LT(pass.fragmentation_after, pass.fragmentation_before);
  EXPECT_DOUBLE_EQ(pass.fragmentation_before, before);

  // The survivor of C2 moved into the C1 hole, leaving C2+C3 contiguous.
  const auto metrics = core::measure_fragmentation(manager.state());
  EXPECT_GE(metrics.largest_free_region, 2u);

  // Oracle: the live state equals a serial replay of the migrated
  // mappings, and stats picked the pass up.
  EXPECT_TRUE(manager.state() == replay(manager, platform));
  EXPECT_EQ(manager.stats().migrations, 1u);
  EXPECT_EQ(manager.stats().defrag_passes, 1u);
}

TEST(DefragPlanner, RespectsMigrationBudget) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  runtime::DefragOptions defrag;
  defrag.migration_budget_us = 1e-6;  // far below any real transfer
  runtime::RuntimeManager manager(
      platform,
      {.mapper = std::make_shared<core::SpatialMapper>(), .defrag = defrag});
  std::vector<AppId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(manager.admit(app).app_id);
  }
  manager.release(ids[1]);
  manager.release(ids[3]);
  const auto pass = manager.defrag_now();
  EXPECT_EQ(pass.migrations, 0u);  // every candidate exceeds the budget
  EXPECT_DOUBLE_EQ(pass.migration_cost_us, 0.0);
}

// -------------------------------------------------- manager integration --

TEST(RuntimeManagerDefrag, OnReleaseThresholdRunsBeforeWakingParked) {
  const auto platform = row_platform();
  const auto app = one_stage_app();
  runtime::DefragOptions defrag;
  defrag.policy = runtime::DefragPolicy::OnReleaseThreshold;
  defrag.fragmentation_threshold = 0.3;
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>(),
                 .policy = std::make_shared<runtime::RetryAdmission>(4),
                 .defrag = defrag});

  std::vector<AppId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(manager.admit(app).app_id);
  }
  // All compute tiles taken: the fifth request parks.
  const auto parked = manager.admit(app);
  EXPECT_EQ(parked.status, runtime::AdmitStatus::Waiting);
  ASSERT_EQ(manager.waiting_count(), 1u);

  // A back-to-back release batch frees C1 and C3; the manager defrags
  // once after the batch, then wakes the parked request into the
  // compacted state.
  manager.submit_release(ids[1]);
  manager.submit_release(ids[3]);
  const auto outcomes = manager.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, runtime::AdmitStatus::Admitted);
  EXPECT_EQ(outcomes[0].request, parked.request);

  const auto& stats = manager.stats();
  EXPECT_EQ(stats.defrag_passes, 1u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.parked_woken_by_defrag, 1u);
  EXPECT_GT(stats.last_fragmentation_before,
            stats.last_fragmentation_after);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(RuntimeManagerDefrag, OnRejectCompactsAndRetriesTheRequest) {
  // Two dual-slot tiles, three small residents admitted so their
  // utilisation is smeared 2+1 across the tiles; a large app then needs a
  // nearly-empty tile. Only after the on-reject pass consolidates the
  // residents does the retry succeed.
  arch::Platform platform("pair 2x2", 2, 2);
  const TileTypeId big = platform.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = platform.add_tile_type("IO", 200'000'000);
  platform.add_tile("C0", big, 0, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("C1", big, 1, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("SRC", io, 0, 1, 64 * 1024, 8);
  platform.add_tile("DST", io, 1, 1, 64 * 1024, 8);

  test::PipelineSpec small;
  small.stages = 1;
  small.little_wcet_cc = 0;
  small.big_wcet_cc = 240;  // util 0.3 at 200 MHz / 4 us
  test::PipelineSpec large = small;
  large.big_wcet_cc = 640;  // util 0.8: needs a tile with one small at most

  runtime::DefragOptions defrag;
  defrag.policy = runtime::DefragPolicy::OnReject;
  runtime::RuntimeManager manager(
      platform,
      {.mapper = std::make_shared<core::SpatialMapper>(), .defrag = defrag});

  std::vector<AppId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = manager.admit(test::pipeline_app(small));
    ASSERT_EQ(outcome.status, runtime::AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }
  // Residents sit 2 + 1; release one of the pair so both tiles hold one
  // resident (0.3 each) — 0.8 fits neither, but compaction frees a tile.
  manager.release(ids[0]);

  const auto outcome = manager.admit(test::pipeline_app(large));
  EXPECT_EQ(outcome.status, runtime::AdmitStatus::Admitted)
      << outcome.mapping.failure;
  EXPECT_GE(outcome.attempts, 2u);  // failed, defragged, succeeded
  const auto& stats = manager.stats();
  EXPECT_GE(stats.defrag_passes, 1u);
  EXPECT_GE(stats.migrations, 1u);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

}  // namespace
}  // namespace rtsm
