#include <gtest/gtest.h>

#include "core/criteria.hpp"
#include "core/spatial_mapper.hpp"
#include "test_helpers.hpp"

namespace rtsm::core {
namespace {

TEST(SpatialMapper, MapsSimplePipeline) {
  const auto app = test::pipeline_app({.stages = 2});
  const auto platform = test::small_platform();
  const SpatialMapper mapper;
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_TRUE(result.mapping.all_assigned());
  EXPECT_TRUE(result.mapping.all_routed());
  EXPECT_GT(result.energy_nj_per_symbol, 0.0);
  EXPECT_LE(result.achieved_period_ps, 4000u * 1000u);
}

TEST(SpatialMapper, ResultIsAdherentAndVerifiable) {
  const auto app = test::pipeline_app({.stages = 3});
  const auto platform = test::small_platform();
  const SpatialMapper mapper;
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;
  const auto adequate = check_adequate(app, platform, result.mapping);
  EXPECT_TRUE(adequate.ok) << adequate.reason;
  const auto adherent = check_adherent(app, platform, result.mapping);
  EXPECT_TRUE(adherent.ok) << adherent.reason;
}

TEST(SpatialMapper, DeterministicAcrossCalls) {
  const auto app = test::pipeline_app({.stages = 3});
  const auto platform = test::small_platform();
  const SpatialMapper mapper;
  const auto r1 = mapper.map(app, platform);
  const auto r2 = mapper.map(app, platform);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_DOUBLE_EQ(r1.energy_nj_per_symbol, r2.energy_nj_per_symbol);
  for (const ProcessId pid : app.process_ids()) {
    EXPECT_EQ(r1.mapping.tile_of(pid), r2.mapping.tile_of(pid));
    EXPECT_EQ(r1.mapping.impl_of(pid), r2.mapping.impl_of(pid));
  }
}

TEST(SpatialMapper, FeedbackLoopRecoversFromBadStep1Choice) {
  // LITTLE looks cheaper (25 nJ) but is too slow for the period; with the
  // utilisation screen off, step 1 picks it, step 4 rejects it, and the
  // refinement loop must converge on BIG.
  test::PipelineSpec spec;
  spec.stages = 1;
  spec.little_wcet_cc = 1600;  // 8000 ns > 4000 ns period
  spec.little_energy_nj = 25.0;
  const auto app = test::pipeline_app(spec);
  const auto platform = test::small_platform();

  MapperConfig config;
  config.step1.utilization_screen = false;
  const SpatialMapper mapper(config);
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_GE(result.rounds, 2u);  // at least one refinement happened
  const ProcessId s0 = app.process_by_name("S0");
  EXPECT_EQ(app.implementation(s0, result.mapping.impl_of(s0)).tile_type,
            "BIG");
  // Trace carries the failed round and its outcome.
  ASSERT_GE(result.trace.rounds.size(), 2u);
  EXPECT_NE(result.trace.rounds.front().outcome.find("step 4 failed"),
            std::string::npos);
  EXPECT_EQ(result.trace.rounds.back().outcome, "feasible");
}

TEST(SpatialMapper, ImpossibleAppReportsFailure) {
  // 5 BIG-only stages, 2 BIG tiles.
  const auto app = test::pipeline_app({.stages = 5, .little_wcet_cc = 0});
  const auto platform = test::small_platform();
  const SpatialMapper mapper;
  const auto result = mapper.map(app, platform);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.failure.empty());
}

TEST(SpatialMapper, RunStep2DisabledStillFeasible) {
  const auto app = test::pipeline_app({.stages = 2});
  const auto platform = test::small_platform();
  MapperConfig config;
  config.run_step2 = false;
  const SpatialMapper mapper(config);
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;
}

TEST(SpatialMapper, Step2ReducesEnergyVersusGreedyOnly) {
  const auto app = test::pipeline_app({.stages = 3});
  const auto platform = test::small_platform();
  MapperConfig with;
  MapperConfig without;
  without.run_step2 = false;
  const auto refined = SpatialMapper(with).map(app, platform);
  const auto greedy = SpatialMapper(without).map(app, platform);
  ASSERT_TRUE(refined.success);
  ASSERT_TRUE(greedy.success);
  EXPECT_LE(refined.energy_nj_per_symbol, greedy.energy_nj_per_symbol);
}

TEST(SpatialMapper, MapsAgainstResidualState) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 1, .little_wcet_cc = 0});
  ResourceState state(platform);
  // Pre-occupy BIG0: the process must land on BIG1.
  state.reserve_tile(platform.tile_by_name("BIG0"), 0.9, 0);
  const SpatialMapper mapper;
  const auto result = mapper.map(app, state);
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.mapping.tile_of(app.process_by_name("S0")),
            platform.tile_by_name("BIG1"));
}

TEST(SpatialMapper, BaseStateNotModifiedOnMap) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(platform);
  const SpatialMapper mapper;
  ASSERT_TRUE(mapper.map(app, state).success);
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(state.utilization(tid), 0.0);
    EXPECT_EQ(state.memory_used(tid), 0u);
  }
  EXPECT_DOUBLE_EQ(state.links().total_reserved(), 0.0);
}

TEST(SpatialMapper, CommitAndReleaseRoundTrip) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  const SpatialMapper mapper;
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success);

  ResourceState state(platform);
  commit_mapping(state, app, result.mapping);
  bool any_used = false;
  for (const TileId tid : platform.tile_ids()) {
    any_used = any_used || state.utilization(tid) > 0.0;
  }
  EXPECT_TRUE(any_used);
  EXPECT_GT(state.links().total_reserved(), 0.0);

  release_mapping(state, app, result.mapping);
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(state.utilization(tid), 0.0);
    EXPECT_EQ(state.memory_used(tid), 0u);
    EXPECT_EQ(state.processes_hosted(tid), 0u);
  }
  EXPECT_EQ(state.links().total_reserved(), 0.0);
  EXPECT_TRUE(state == ResourceState(platform));
}

TEST(SpatialMapper, TraceHasAllSteps) {
  const auto app = test::pipeline_app({.stages = 2});
  const auto platform = test::small_platform();
  const SpatialMapper mapper;
  const auto result = mapper.map(app, platform);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.trace.rounds.size(), result.rounds);
  const auto& round = result.trace.rounds.back();
  EXPECT_EQ(round.step1.size(), 2u);
  EXPECT_EQ(round.step3.size(), app.channel_count());
  EXPECT_TRUE(round.step4.ran);
  EXPECT_TRUE(round.step4.feasible);
  EXPECT_EQ(round.outcome, "feasible");
}

TEST(SpatialMapper, RoundLimitRespected) {
  // Impossible app: too slow implementations only, screen off so every
  // round fails in step 4 until implementations are exhausted.
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.big_wcet_cc = 3000;
  spec.little_wcet_cc = 3000;
  const auto app = test::pipeline_app(spec);
  const auto platform = test::small_platform();
  MapperConfig config;
  config.step1.utilization_screen = false;
  config.max_refinement_rounds = 3;
  const SpatialMapper mapper(config);
  const auto result = mapper.map(app, platform);
  EXPECT_FALSE(result.success);
  EXPECT_LE(result.rounds, 3u);
}

}  // namespace
}  // namespace rtsm::core
