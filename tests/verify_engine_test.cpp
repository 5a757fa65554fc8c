#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/channel_routing.hpp"
#include "core/feasibility.hpp"
#include "core/implementation_selection.hpp"
#include "core/spatial_mapper.hpp"
#include "csdf/buffer_sizing.hpp"
#include "core/csdf_expansion.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "test_helpers.hpp"
#include "verify/engine.hpp"
#include "verify/signature.hpp"
#include "workload/synthetic.hpp"

namespace rtsm {
namespace {

using core::FeasibilityReport;
using core::Mapping;
using core::MappingContext;
using core::ResourceState;

/// Places and routes @p app on @p platform (steps 1 + 3).
void place_and_route(const kpn::Application& app,
                     const arch::Platform& platform, ResourceState& state,
                     Mapping& mapping) {
  core::FeedbackSet feedback;
  energy::EnergyModel energy;
  core::MappingTrace::Round round;
  MappingContext ctx{app, platform, state, feedback, energy, mapping, round};
  ASSERT_TRUE(core::run_step1(ctx).success);
  ASSERT_TRUE(core::run_step3(ctx).success);
}

/// Runs step 4 on private copies of state/mapping, optionally through an
/// engine; returns the report plus the resulting buffer capacities.
struct Step4Run {
  FeasibilityReport report;
  std::vector<std::uint32_t> buffers;
  ResourceState state;
};

Step4Run run_step4_copy(const kpn::Application& app,
                        const arch::Platform& platform,
                        const ResourceState& state, const Mapping& mapping,
                        verify::Engine* engine) {
  Step4Run run{{}, {}, state};
  Mapping m = mapping;
  core::FeedbackSet feedback;
  energy::EnergyModel energy;
  core::MappingTrace::Round round;
  MappingContext ctx{app,    platform, run.state, feedback,
                     energy, m,        round,     engine};
  run.report = core::run_step4(ctx);
  for (const ChannelId cid : app.channel_ids()) {
    run.buffers.push_back(m.buffer_tokens(cid).value_or(0));
  }
  return run;
}

void expect_identical(const Step4Run& a, const Step4Run& b) {
  EXPECT_EQ(a.report.feasible, b.report.feasible);
  EXPECT_EQ(a.report.failure, b.report.failure);
  EXPECT_EQ(a.report.achieved_period_ps, b.report.achieved_period_ps);
  EXPECT_EQ(a.report.latency_ps, b.report.latency_ps);
  EXPECT_EQ(a.report.feedback.has_value(), b.report.feedback.has_value());
  EXPECT_EQ(a.buffers, b.buffers);
  EXPECT_TRUE(a.state == b.state);
}

verify::SizingKey default_key(const kpn::Application& app) {
  verify::SizingKey key;
  key.target_period_ps =
      static_cast<std::uint64_t>(app.qos().symbol_period_ns) * 1000ull;
  return key;
}

// --- cached / warm-started step 4 is bit-identical to the direct path ----

TEST(EngineEquivalence, CachedStep4MatchesUncachedAndHits) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);

  verify::Engine engine;
  const Step4Run direct =
      run_step4_copy(app, platform, state, mapping, nullptr);
  const Step4Run cold = run_step4_copy(app, platform, state, mapping, &engine);
  const Step4Run warm = run_step4_copy(app, platform, state, mapping, &engine);

  expect_identical(direct, cold);
  expect_identical(direct, warm);

  const verify::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.events_saved, 0u);
  EXPECT_GT(stats.simulations_saved, 0u);
}

TEST(EngineEquivalence, SpatialMapperMatchesUncachedOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 77 + 5);
    workload::SyntheticPlatformParams pp;
    const auto platform = workload::make_synthetic_platform(rng, pp, "p");
    workload::SyntheticAppParams ap;
    ap.process_count = 4;
    const auto app = workload::make_synthetic_app(
        rng, ap, "a" + std::to_string(seed));

    core::MapperConfig uncached_cfg;
    uncached_cfg.cache_verification = false;
    const core::SpatialMapper uncached(uncached_cfg);
    const core::SpatialMapper cached;  // builds a private engine

    const auto want = uncached.map(app, platform);
    // Twice: the second pass re-serves every round from the cache.
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = cached.map(app, platform);
      ASSERT_EQ(got.success, want.success) << "seed " << seed;
      EXPECT_EQ(got.achieved_period_ps, want.achieved_period_ps);
      EXPECT_EQ(got.latency_ps, want.latency_ps);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.failure, want.failure);
      if (!want.success) continue;
      EXPECT_DOUBLE_EQ(got.energy_nj_per_symbol, want.energy_nj_per_symbol);
      for (const ProcessId pid : app.process_ids()) {
        EXPECT_EQ(got.mapping.tile_of(pid), want.mapping.tile_of(pid));
        EXPECT_EQ(got.mapping.impl_of(pid), want.mapping.impl_of(pid));
      }
      for (const ChannelId cid : app.channel_ids()) {
        EXPECT_EQ(got.mapping.buffer_tokens(cid),
                  want.mapping.buffer_tokens(cid));
      }
    }
    ASSERT_NE(cached.verification_engine(), nullptr);
    EXPECT_GT(cached.verification_engine()->stats().hits, 0u);
  }
}

TEST(WarmStart, HintNeverChangesSizingResult) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 3, .tokens = 32});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);

  const verify::SizingKey key = default_key(app);
  const auto cold = verify::compute_verification(app, platform, mapping, key);
  ASSERT_TRUE(cold.feasible);
  EXPECT_FALSE(cold.warm_started);

  // Exact previous solution as the hint.
  const auto warm = verify::compute_verification(app, platform, mapping, key,
                                                 &cold.buffer_tokens);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.buffer_tokens, cold.buffer_tokens);
  EXPECT_EQ(warm.achieved_period_ps, cold.achieved_period_ps);
  EXPECT_EQ(warm.latency_ps, cold.latency_ps);
  // This pipeline settles at the structural lower bound, which the cold
  // search simulates first: one run. The exact hint is that lower bound,
  // so the warm search's lower-bound probe reuses the hint's run. (Hints
  // save simulations when the answer lies above the lower bound:
  // BufferSizing.WarmStartSavesSimulationsAboveTheLowerBound.)
  EXPECT_EQ(cold.simulations, 1u);
  EXPECT_EQ(warm.simulations, 1u);

  // A perturbed hint (what a refinement round would carry over) still
  // converges to the identical minimal capacities.
  std::vector<std::uint32_t> off = cold.buffer_tokens;
  for (auto& c : off) c += 3;
  const auto nudged =
      verify::compute_verification(app, platform, mapping, key, &off);
  EXPECT_EQ(nudged.buffer_tokens, cold.buffer_tokens);
  EXPECT_EQ(nudged.achieved_period_ps, cold.achieved_period_ps);
  EXPECT_EQ(nudged.latency_ps, cold.latency_ps);
}

// --- cache keying -------------------------------------------------------

TEST(Signature, StableAcrossRebuilds) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);

  const verify::SizingKey key = default_key(app);
  const auto a = verify::MappingSignature::of(app, platform, mapping, key);
  const auto b = verify::MappingSignature::of(app, platform, mapping, key);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Signature, ChangesOnImplementationEdit) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);

  const verify::SizingKey key = default_key(app);
  const auto before = verify::MappingSignature::of(app, platform, mapping, key);

  const ProcessId s0 = app.process_by_name("S0");
  const ImplementationId other{
      mapping.impl_of(s0) == ImplementationId{0} ? 1u : 0u};
  mapping.assign(s0, other, mapping.tile_of(s0));
  const auto after = verify::MappingSignature::of(app, platform, mapping, key);
  EXPECT_FALSE(before == after);
}

TEST(Signature, ChangesOnRouteEdit) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2, .with_fixtures = false});
  Mapping mapping(app.process_count(), app.channel_count());
  const ProcessId s0 = app.process_by_name("S0");
  const ProcessId s1 = app.process_by_name("S1");
  mapping.assign(s0, ImplementationId{0}, platform.tile_by_name("BIG0"));
  mapping.assign(s1, ImplementationId{0}, platform.tile_by_name("BIG1"));

  ResourceState state(platform);
  core::FeedbackSet feedback;
  energy::EnergyModel energy;
  core::MappingTrace::Round round;
  MappingContext ctx{app, platform, state, feedback, energy, mapping, round};
  ASSERT_TRUE(core::run_step3(ctx).success);

  const verify::SizingKey key = default_key(app);
  const auto before = verify::MappingSignature::of(app, platform, mapping, key);

  // Same implementation, same clock (LITTLE == BIG clock in the test
  // platform), different position: only the route words change.
  mapping.move(s1, platform.tile_by_name("LITTLE0"));
  mapping.clear_paths();
  ASSERT_TRUE(core::run_step3(ctx).success);
  const auto after = verify::MappingSignature::of(app, platform, mapping, key);
  EXPECT_FALSE(before == after);
}

TEST(Signature, EqualClockMoveWithSameRoutesHits) {
  // Both stages co-located: the channel is intra-tile wherever the pair
  // lives, so moving the pair to another equal-clock tile keeps the
  // signature (tile *identity* is deliberately not keyed — only its clock
  // and the routes).
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2, .with_fixtures = false});
  const ProcessId s0 = app.process_by_name("S0");
  const ProcessId s1 = app.process_by_name("S1");
  const ChannelId c01 = app.channel_ids().front();

  Mapping on_big0(app.process_count(), app.channel_count());
  const TileId big0 = platform.tile_by_name("BIG0");
  on_big0.assign(s0, ImplementationId{0}, big0);
  on_big0.assign(s1, ImplementationId{0}, big0);
  on_big0.set_path(c01, noc::Path{big0, big0, {}});

  Mapping on_big1(app.process_count(), app.channel_count());
  const TileId big1 = platform.tile_by_name("BIG1");
  on_big1.assign(s0, ImplementationId{0}, big1);
  on_big1.assign(s1, ImplementationId{0}, big1);
  on_big1.set_path(c01, noc::Path{big1, big1, {}});

  const verify::SizingKey key = default_key(app);
  EXPECT_TRUE(verify::MappingSignature::of(app, platform, on_big0, key) ==
              verify::MappingSignature::of(app, platform, on_big1, key));
}

TEST(Signature, ChangesOnTileClockEdit) {
  const auto slow = test::small_platform(200'000'000);
  const auto fast = test::small_platform(400'000'000);
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(slow);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, slow, state, mapping);

  const verify::SizingKey key = default_key(app);
  // Identical assignment and routes, but the BIG tiles now run 2x faster.
  EXPECT_FALSE(verify::MappingSignature::of(app, slow, mapping, key) ==
               verify::MappingSignature::of(app, fast, mapping, key));
}

TEST(Signature, ChangesOnSizingParameters) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);

  verify::SizingKey key = default_key(app);
  const auto base = verify::MappingSignature::of(app, platform, mapping, key);
  key.simulation.measured_iterations += 4;
  EXPECT_FALSE(base ==
               verify::MappingSignature::of(app, platform, mapping, key));
}

// --- shared engine under contention (exercised by the TSan CI job) ------

TEST(EngineConcurrency, SharedCacheUnderContention) {
  const auto platform = test::small_platform();
  struct Variant {
    kpn::Application app;
    Mapping mapping{0, 0};
    verify::VerificationOutcome want;
  };
  std::vector<Variant> variants;
  for (std::uint32_t tokens : {8u, 16u, 24u, 32u}) {
    test::PipelineSpec spec;
    spec.stages = 2;
    spec.tokens = tokens;
    Variant v{test::pipeline_app(spec), Mapping{0, 0}, {}};
    v.mapping = Mapping(v.app.process_count(), v.app.channel_count());
    ResourceState state(platform);
    place_and_route(v.app, platform, state, v.mapping);
    v.want = verify::compute_verification(v.app, platform, v.mapping,
                                          default_key(v.app));
    variants.push_back(std::move(v));
  }

  verify::Engine engine;
  constexpr int kThreads = 8;
  constexpr int kIters = 32;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const Variant& v = variants[(t + i) % variants.size()];
          const auto got = engine.verify(v.app, platform, v.mapping,
                                         default_key(v.app));
          if (got->feasible != v.want.feasible ||
              got->buffer_tokens != v.want.buffer_tokens ||
              got->achieved_period_ps != v.want.achieved_period_ps ||
              got->latency_ps != v.want.latency_ps) {
            ++mismatches[t];
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const verify::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads * kIters));
  // Racing threads may each compute an early miss of the same signature;
  // everything past that first wave must be served from the cache.
  EXPECT_GE(stats.hits, stats.lookups - kThreads * variants.size());
  EXPECT_EQ(engine.cache_size(), variants.size());
}

// --- engine stats surface through the runtime managers ------------------

TEST(RuntimeIntegration, RepeatAdmissionsHitTheSharedCache) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()});

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted);
  manager.release(first.app_id);
  const auto second = manager.admit(app);
  ASSERT_EQ(second.status, runtime::AdmitStatus::Admitted);

  // The state was restored between the admissions, so the second plans the
  // identical structural mapping and serves step 4 from the cache.
  const verify::EngineStats stats = manager.verification_stats();
  EXPECT_GE(stats.lookups, 2u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GT(stats.events_saved, 0u);

  for (const ChannelId cid : app.channel_ids()) {
    EXPECT_EQ(manager.mapping_of(second.app_id).buffer_tokens(cid),
              first.mapping.mapping.buffer_tokens(cid));
  }
}

TEST(RuntimeIntegration, SkippedEventsReachTheStatsReport) {
  const auto platform = test::small_platform();
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()});
  ASSERT_EQ(manager.admit(test::pipeline_app({.stages = 2})).status,
            runtime::AdmitStatus::Admitted);

  // A pipeline's schedule repeats within the warmup, so most of every
  // sizing simulation is fast-forwarded.
  const verify::EngineStats stats = manager.verification_stats();
  EXPECT_GT(stats.events_skipped, 0u);
  EXPECT_LT(stats.events_skipped, stats.events_simulated);
  const std::string json = manager.stats_report().to_json();
  const std::string entry =
      "\"events_simulated\":" + std::to_string(stats.events_simulated) +
      ",\"events_skipped\":" + std::to_string(stats.events_skipped);
  EXPECT_NE(json.find(entry), std::string::npos) << json;
}

TEST(RuntimeIntegration, CacheOccupancyReachesTheStatsReport) {
  const auto platform = test::small_platform();
  auto engine = std::make_shared<verify::Engine>();
  auto routes = std::make_shared<noc::RouteCache>();
  core::MapperConfig config;
  config.engine = engine;
  config.route_cache = routes;
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>(config)});
  const runtime::StatsReport empty = manager.stats_report();
  EXPECT_EQ(empty.verification.cache_entries, 0u);
  EXPECT_EQ(empty.verification.warm_hints, 0u);
  EXPECT_EQ(empty.route_cache.entries, 0u);

  const auto first = manager.admit(test::pipeline_app({.stages = 2}));
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted);
  manager.release(first.app_id);
  ASSERT_EQ(manager.admit(test::pipeline_app({.stages = 3})).status,
            runtime::AdmitStatus::Admitted);

  // Two distinct skeletons: two cached outcomes, two warm hints (one per
  // feasible skeleton), and the routes their channels took.
  const runtime::StatsReport report = manager.stats_report();
  EXPECT_EQ(report.verification.cache_entries, engine->cache_size());
  EXPECT_EQ(report.verification.cache_entries, 2u);
  EXPECT_EQ(report.verification.warm_hints, 2u);
  EXPECT_EQ(report.route_cache.entries, routes->size());
  EXPECT_GT(report.route_cache.entries, 0u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find(",\"cache_entries\":2,\"warm_hints\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"entries\":" +
                      std::to_string(report.route_cache.entries) + ","),
            std::string::npos)
      << json;
}

TEST(RuntimeIntegration, DominanceSkipsReachTheStatsReport) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 3, .tokens = 32});
  ResourceState state(platform);
  Mapping mapping(app.process_count(), app.channel_count());
  place_and_route(app, platform, state, mapping);
  verify::Engine engine;

  const verify::SizingKey key = default_key(app);
  const auto feasible = engine.verify(app, platform, mapping, key);
  ASSERT_TRUE(feasible->feasible);
  EXPECT_EQ(feasible->dominance_skips, 0u);

  // A target no buffering reaches. The skeleton's stored capacities warm
  // the search; their infeasible verdict implies the lower bound's, so
  // only the hint and the upper-bound gate are simulated.
  verify::SizingKey tight = key;
  tight.target_period_ps = key.target_period_ps / 4;
  const auto missed = engine.verify(app, platform, mapping, tight);
  ASSERT_FALSE(missed->feasible);
  EXPECT_TRUE(missed->warm_started);
  EXPECT_EQ(missed->dominance_skips, 1u);
  EXPECT_EQ(missed->simulations, 2u);

  runtime::StatsReport report;
  report.verification = engine.stats();
  EXPECT_EQ(report.verification.dominance_skips, 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find(",\"dominance_skips\":1,"), std::string::npos) << json;
}

}  // namespace
}  // namespace rtsm
