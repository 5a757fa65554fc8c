#include <gtest/gtest.h>

#include "util/error.hpp"
#include "core/channel_routing.hpp"
#include "core/csdf_expansion.hpp"
#include "core/feasibility.hpp"
#include "core/implementation_selection.hpp"
#include "csdf/analysis.hpp"
#include "test_helpers.hpp"

namespace rtsm::core {
namespace {

struct Step4Fixture {
  arch::Platform platform = test::small_platform();
  energy::EnergyModel energy;
  FeedbackSet feedback;
  MappingTrace::Round round;

  /// Runs steps 1 and 3 so the mapping is placed and routed.
  void place_and_route(const kpn::Application& app, ResourceState& state,
                       Mapping& mapping, bool screen = true) {
    MappingContext ctx{app, platform, state, feedback, energy, mapping, round};
    Step1Options options;
    options.utilization_screen = screen;
    ASSERT_TRUE(run_step1(ctx, options).success);
    ASSERT_TRUE(run_step3(ctx).success);
  }

  FeasibilityReport verify(const kpn::Application& app, ResourceState& state,
                           Mapping& mapping) {
    MappingContext ctx{app, platform, state, feedback, energy, mapping, round};
    return run_step4(ctx);
  }
};

TEST(Expansion, RequiresRoutedMapping) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  Mapping mapping(app.process_count(), app.channel_count());
  EXPECT_THROW((void)expand_mapping(app, f.platform, mapping), Error);
}

TEST(Expansion, CreatesProcessAndRouterActors) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const ExpandedGraph expanded = expand_mapping(app, f.platform, mapping);

  // Process actors: one per process. Router actors: one per router on a
  // path of up to two routers, else the two end routers, joined by one
  // "/hops" edge holding the H-1 hop buffers and the H-2 middle router
  // latencies.
  EXPECT_EQ(expanded.process_actor.size(), app.process_count());
  const std::uint32_t b = f.platform.noc().hop_buffer_tokens;
  const std::uint64_t r = f.platform.noc().router_latency_ps();
  std::size_t hop_actors = 0;
  std::size_t collapsed = 0;
  for (const ChannelId cid : app.channel_ids()) {
    const auto& path = *mapping.path(cid);
    const std::size_t routers = path.routers(f.platform).size();
    const auto& hops = expanded.hop_actors[cid.value()];
    ASSERT_EQ(hops.size(), std::min<std::size_t>(routers, 2));
    hop_actors += hops.size();
    if (routers < 3) continue;
    ++collapsed;
    const std::string name = app.channel(cid).name + "/hops";
    std::size_t found = 0;
    for (const EdgeId e : expanded.graph.edge_ids()) {
      const csdf::Edge& edge = expanded.graph.edge(e);
      if (edge.name != name) continue;
      ++found;
      EXPECT_EQ(edge.src, hops[0]);
      EXPECT_EQ(edge.dst, hops[1]);
      EXPECT_EQ(edge.capacity, (routers - 1) * b);
      EXPECT_EQ(edge.latency_ps, (routers - 2) * r);
    }
    EXPECT_EQ(found, 1u) << name;
  }
  EXPECT_GT(collapsed, 0u);
  EXPECT_EQ(expanded.graph.actor_count(), app.process_count() + hop_actors);
  // Per channel: inject and eject edges, plus the hop edge between two
  // router actors.
  std::size_t edges = 0;
  for (const auto& hops : expanded.hop_actors) edges += hops.size() + 1;
  EXPECT_EQ(expanded.graph.edge_count(), edges);
}

TEST(Expansion, GraphIsConsistent) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const ExpandedGraph expanded = expand_mapping(app, f.platform, mapping);
  EXPECT_TRUE(csdf::is_consistent(expanded.graph));
}

TEST(Expansion, HopEdgesCarryRouterBufferCapacity) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const ExpandedGraph expanded = expand_mapping(app, f.platform, mapping);
  // All edges except the consumer edges have finite capacity.
  std::vector<bool> is_consumer(expanded.graph.edge_count(), false);
  for (const EdgeId e : expanded.consumer_edge) is_consumer[e.value()] = true;
  for (const EdgeId e : expanded.graph.edge_ids()) {
    if (is_consumer[e.value()]) {
      EXPECT_FALSE(expanded.graph.edge(e).capacity.has_value());
    } else {
      ASSERT_TRUE(expanded.graph.edge(e).capacity.has_value());
      EXPECT_GE(*expanded.graph.edge(e).capacity,
                f.platform.noc().hop_buffer_tokens);
    }
  }
}

TEST(Expansion, WcetsScaleWithTileClock) {
  // Same app on a platform whose BIG tiles are clocked twice as fast.
  const auto app = test::pipeline_app({.stages = 1, .little_wcet_cc = 0});
  Step4Fixture slow;
  Step4Fixture fast;
  fast.platform = test::small_platform(400'000'000);

  ResourceState s1(slow.platform);
  Mapping m1(app.process_count(), app.channel_count());
  slow.place_and_route(app, s1, m1);
  ResourceState s2(fast.platform);
  Mapping m2(app.process_count(), app.channel_count());
  fast.place_and_route(app, s2, m2);

  const auto g1 = expand_mapping(app, slow.platform, m1);
  const auto g2 = expand_mapping(app, fast.platform, m2);
  const ProcessId s0 = app.process_by_name("S0");
  const auto wcet1 =
      g1.graph.actor(g1.process_actor[s0.value()]).cycle_wcet_ps();
  const auto wcet2 =
      g2.graph.actor(g2.process_actor[s0.value()]).cycle_wcet_ps();
  EXPECT_EQ(wcet1, 2 * wcet2);
}

TEST(Step4, FeasiblePipelineVerifies) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const auto report = f.verify(app, state, mapping);
  ASSERT_TRUE(report.feasible) << report.failure;
  EXPECT_LE(report.achieved_period_ps, 4000u * 1000u);
  EXPECT_GT(report.latency_ps, 0u);
  // Buffers recorded on every channel.
  for (const ChannelId cid : app.channel_ids()) {
    EXPECT_TRUE(mapping.buffer_tokens(cid).has_value());
    EXPECT_GE(*mapping.buffer_tokens(cid), 1u);
  }
}

TEST(Step4, TooSlowImplementationRejectedWithFeedback) {
  Step4Fixture f;
  // Only LITTLE variants exist and they are far too slow: 3200 cc = 16 us.
  test::PipelineSpec spec;
  spec.stages = 1;
  spec.big_wcet_cc = 3200;
  spec.little_wcet_cc = 0;
  const auto app = test::pipeline_app(spec);
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping, /*screen=*/false);
  const auto report = f.verify(app, state, mapping);
  EXPECT_FALSE(report.feasible);
  ASSERT_TRUE(report.feedback.has_value());
  EXPECT_EQ(report.feedback->kind,
            FeedbackConstraint::Kind::ForbidImplementation);
  EXPECT_EQ(report.feedback->process, app.process_by_name("S0"));
}

TEST(Step4, BufferMemoryChargedToConsumerTile) {
  Step4Fixture f;
  const auto app = test::pipeline_app({.stages = 2});
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const ProcessId s1 = app.process_by_name("S1");
  const TileId consumer = mapping.tile_of(s1);
  const std::uint64_t before = state.memory_used(consumer);
  ASSERT_TRUE(f.verify(app, state, mapping).feasible);
  EXPECT_GT(state.memory_used(consumer), before);
}

TEST(Step4, BufferThatCannotFitProducesTileFeedback) {
  // Tiny tile memory: implementations fit, buffers do not.
  Step4Fixture f;
  f.platform = test::small_platform(200'000'000, 200'000'000, 4200);
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.tokens = 64;  // 64 tokens * 4 B > remaining memory after 4 KiB impl
  spec.impl_memory = 4 * 1024;
  const auto app = test::pipeline_app(spec);
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);
  const auto report = f.verify(app, state, mapping);
  EXPECT_FALSE(report.feasible);
  ASSERT_TRUE(report.feedback.has_value());
  EXPECT_EQ(report.feedback->kind, FeedbackConstraint::Kind::ForbidTile);
}

/// SRC -> A -> B -> DST where the final channel carries a burst whose
/// consumer-side buffer cannot fit DST's tile, while the earlier channels'
/// buffers fit fine — the shape that used to leak partial reservations.
kpn::Application tail_heavy_app() {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app("tail-heavy", qos);
  const ProcessId src = app.add_fixture("SRC", "SRC");
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ProcessId dst = app.add_fixture("DST", "DST");
  const ChannelId c0 = app.connect(src, a, 8);
  const ChannelId c1 = app.connect(a, b, 8);
  const ChannelId c2 = app.connect(b, dst, 64);

  auto impl = [&](ProcessId pid, const char* type,
                  std::vector<kpn::PortSpec> in,
                  std::vector<kpn::PortSpec> out, std::uint64_t memory) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@" + type;
    im.tile_type = type;
    im.wcet_cc = {100};
    im.inputs = std::move(in);
    im.outputs = std::move(out);
    im.memory_bytes = memory;
    app.add_implementation(pid, std::move(im));
  };
  impl(src, "IO", {}, {{c0, {8}}}, 64);
  impl(a, "BIG", {{c0, {8}}}, {{c1, {8}}}, 128);
  impl(b, "BIG", {{c1, {8}}}, {{c2, {64}}}, 128);
  impl(dst, "IO", {{c2, {64}}}, {}, 64);
  app.validate();
  return app;
}

TEST(Step4, BufferMisfitRollsBackPartialReservations) {
  Step4Fixture f;
  // 280 B per tile: each stage implementation (128 B) plus its small
  // 8-token buffer fits, but DST's 64-token eject buffer (256 B on top of
  // the 64 B fixture implementation) does not.
  f.platform = test::small_platform(200'000'000, 200'000'000, 280);
  const auto app = tail_heavy_app();
  ResourceState state(f.platform);
  Mapping mapping(app.process_count(), app.channel_count());
  f.place_and_route(app, state, mapping);

  std::vector<std::uint64_t> before;
  for (const TileId tid : f.platform.tile_ids()) {
    before.push_back(state.memory_used(tid));
  }

  const auto report = f.verify(app, state, mapping);
  ASSERT_FALSE(report.feasible);
  ASSERT_TRUE(report.feedback.has_value());
  EXPECT_EQ(report.feedback->kind, FeedbackConstraint::Kind::ForbidTile);
  // The misfit must be the LAST channel — the two earlier channels were
  // reserved before it, which is exactly the leaking shape.
  EXPECT_NE(report.failure.find("B->DST"), std::string::npos)
      << report.failure;

  // The failed step must leave the residual state exactly as it found it:
  // the buffers reserved for the earlier channels are rolled back.
  for (const TileId tid : f.platform.tile_ids()) {
    EXPECT_EQ(state.memory_used(tid), before[tid.value()])
        << "leaked reservation on tile "
        << f.platform.tile(tid).name;
  }
}

TEST(Step4, TraceCarriesPeriodAndLatencyOnEveryOutcome) {
  // Buffer-misfit path: the sizing succeeded, so the trace must still
  // report the achieved period and latency of the sized graph.
  {
    Step4Fixture f;
    f.platform = test::small_platform(200'000'000, 200'000'000, 280);
    const auto app = tail_heavy_app();
    ResourceState state(f.platform);
    Mapping mapping(app.process_count(), app.channel_count());
    f.place_and_route(app, state, mapping);
    ASSERT_FALSE(f.verify(app, state, mapping).feasible);
    EXPECT_TRUE(f.round.step4.ran);
    EXPECT_GT(f.round.step4.achieved_period_ps, 0u);
    EXPECT_GT(f.round.step4.latency_ps, 0u);
  }
  // Throughput-failure path: the achieved (too slow) period is traced.
  {
    Step4Fixture f;
    test::PipelineSpec spec;
    spec.stages = 1;
    spec.big_wcet_cc = 3200;
    spec.little_wcet_cc = 0;
    const auto app = test::pipeline_app(spec);
    ResourceState state(f.platform);
    Mapping mapping(app.process_count(), app.channel_count());
    f.place_and_route(app, state, mapping, /*screen=*/false);
    ASSERT_FALSE(f.verify(app, state, mapping).feasible);
    EXPECT_GT(f.round.step4.achieved_period_ps, 0u);
  }
}

TEST(Step4, LatencyBoundViolationDetected) {
  Step4Fixture f;
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  qos.max_latency_ns = 1;
  kpn::Application strict("strict", qos);
  const ProcessId a = strict.add_fixture("SRC", "SRC");
  const ProcessId b = strict.add_process("S0");
  const ProcessId c = strict.add_fixture("DST", "DST");
  const ChannelId ab = strict.connect(a, b, 8);
  const ChannelId bc = strict.connect(b, c, 8);
  kpn::Implementation ia;
  ia.name = "SRC@IO";
  ia.tile_type = "IO";
  ia.wcet_cc = {100};
  ia.outputs = {{ab, {8}}};
  strict.add_implementation(a, std::move(ia));
  kpn::Implementation ib;
  ib.name = "S0@BIG";
  ib.tile_type = "BIG";
  ib.wcet_cc = {100};
  ib.inputs = {{ab, {8}}};
  ib.outputs = {{bc, {8}}};
  strict.add_implementation(b, std::move(ib));
  kpn::Implementation ic;
  ic.name = "DST@IO";
  ic.tile_type = "IO";
  ic.wcet_cc = {100};
  ic.inputs = {{bc, {8}}};
  strict.add_implementation(c, std::move(ic));
  strict.validate();

  ResourceState state(f.platform);
  Mapping mapping(strict.process_count(), strict.channel_count());
  f.place_and_route(strict, state, mapping);
  const auto report = f.verify(strict, state, mapping);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.failure.find("latency"), std::string::npos);
}

}  // namespace
}  // namespace rtsm::core
