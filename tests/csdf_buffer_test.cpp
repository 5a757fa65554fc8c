#include <gtest/gtest.h>

#include "csdf/analysis.hpp"
#include "csdf/buffer_sizing.hpp"
#include "csdf/graph.hpp"
#include "util/error.hpp"

namespace rtsm::csdf {
namespace {

Edge make_edge(const std::string& name, ActorId src, ActorId dst,
               std::vector<std::uint32_t> prod,
               std::vector<std::uint32_t> cons) {
  Edge e;
  e.name = name;
  e.src = src;
  e.dst = dst;
  e.production = std::move(prod);
  e.consumption = std::move(cons);
  return e;
}

/// P(100) -> M(100) -> C(100), token-granular.
struct Pipeline {
  Graph g;
  ActorId p, m, c;
  EdgeId pm, mc;
  Pipeline() {
    p = g.add_actor("P", {100});
    m = g.add_actor("M", {100});
    c = g.add_actor("C", {100});
    pm = g.add_edge(make_edge("pm", p, m, {1}, {1}));
    mc = g.add_edge(make_edge("mc", m, c, {1}, {1}));
  }
};

TEST(BufferSizing, FindsFeasibleCapacities) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 100;  // the structural optimum
  cfg.reference = pl.c;
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  ASSERT_TRUE(result.feasible) << result.message;
  EXPECT_LE(result.achieved_period_ps, 100u);
  for (const std::uint32_t cap : result.capacities) {
    EXPECT_GE(cap, 1u);
    EXPECT_LE(cap, 8u);  // tiny pipeline needs tiny buffers
  }
}

// The sizer simulates each capacity vector at most once. Here the lower
// bound, simulated first, already meets the target, so it is the answer
// without an upper-bound gate: one simulation, whose result the reporting
// run reuses.
TEST(BufferSizing, FinalReportReusesTheChosenVectorsSimulation) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 100;
  cfg.reference = pl.c;
  cfg.probe = LatencyProbe{pl.p, pl.c};
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  ASSERT_TRUE(result.feasible) << result.message;
  EXPECT_EQ(result.capacities, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(result.simulations, 1u);
  EXPECT_EQ(result.events_simulated, 75u);

  // The reused figures are those of a fresh run on the sized graph.
  const auto rv = repetition_vector(pl.g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(pl.g, *rv, pl.c, cfg.simulation, cfg.probe);
  EXPECT_EQ(result.achieved_period_ps, sim.period_ps);
  EXPECT_EQ(result.latency_ps, sim.latency_ps);
  EXPECT_EQ(result.achieved_period_ps, 100u);
  EXPECT_EQ(result.latency_ps, 300u);
}

TEST(BufferSizing, CapacitiesRemainSetOnGraph) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 100;
  cfg.reference = pl.c;
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(*pl.g.edge(pl.pm).capacity, result.capacities[0]);
  EXPECT_EQ(*pl.g.edge(pl.mc).capacity, result.capacities[1]);
}

TEST(BufferSizing, ImpossiblePeriodReported) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 50;  // below the 100 ps actor bound
  cfg.reference = pl.c;
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.message.empty());
  EXPECT_GT(result.achieved_period_ps, 50u);
}

// A graph that misses even at the upper bound pays the lower bound's run
// on top of the gate's, and reports the gate's failure as before.
TEST(BufferSizing, UpperInfeasibleGraphKeepsTheUpperBoundMessage) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 50;
  cfg.reference = pl.c;
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.message,
            "target period unreachable even with generous buffers: achieved "
            "100ps > target 50ps");
  EXPECT_EQ(result.simulations, 2u);
  EXPECT_EQ(*pl.g.edge(pl.pm).capacity, 4u);  // the upper bound stays set
}

/// A -> B1 -> B2 -> B3 -> D plus a direct A -> D edge: at period 100 the
/// direct edge must hold the tokens in flight along the long path, so the
/// answer lies above the structural lower bound.
struct ForkJoin {
  Graph g;
  ActorId a, d;
  std::vector<EdgeId> edges;
  ForkJoin() {
    a = g.add_actor("A", {100});
    const ActorId b1 = g.add_actor("B1", {100});
    const ActorId b2 = g.add_actor("B2", {100});
    const ActorId b3 = g.add_actor("B3", {100});
    d = g.add_actor("D", {100});
    edges = {g.add_edge(make_edge("ab1", a, b1, {1}, {1})),
             g.add_edge(make_edge("b12", b1, b2, {1}, {1})),
             g.add_edge(make_edge("b23", b2, b3, {1}, {1})),
             g.add_edge(make_edge("b3d", b3, d, {1}, {1})),
             g.add_edge(make_edge("ad", a, d, {1}, {1}))};
  }
};

TEST(BufferSizing, WarmStartSavesSimulationsAboveTheLowerBound) {
  BufferSizingConfig cfg;
  cfg.target_period_ps = 100;
  ForkJoin cold_graph;
  cfg.reference = cold_graph.d;
  const auto cold = size_buffers(cold_graph.g, cold_graph.edges, cfg);
  ASSERT_TRUE(cold.feasible) << cold.message;
  EXPECT_GT(cold.capacities.back(), 1u) << "the direct edge needs slack";

  ForkJoin warm_graph;
  cfg.warm_start = cold.capacities;
  const auto warm = size_buffers(warm_graph.g, warm_graph.edges, cfg);
  ASSERT_TRUE(warm.feasible);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.capacities, cold.capacities);
  EXPECT_EQ(warm.achieved_period_ps, cold.achieved_period_ps);
  EXPECT_LT(warm.simulations, cold.simulations);
  EXPECT_GT(warm.dominance_skips, cold.dominance_skips);
}

TEST(BufferSizing, RelaxedPeriodGivesMinimalBuffers) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 10'000;  // very loose
  cfg.reference = pl.c;
  const auto result = size_buffers(pl.g, {pl.pm, pl.mc}, cfg);
  ASSERT_TRUE(result.feasible);
  // With a loose bound the per-edge trim reaches the structural minimum.
  EXPECT_EQ(result.capacities[0], 1u);
  EXPECT_EQ(result.capacities[1], 1u);
}

TEST(BufferSizing, BurstTransfersNeedBurstCapacity) {
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {100});
  const EdgeId e = g.add_edge(make_edge("e", p, c, {16}, {16}));
  BufferSizingConfig cfg;
  cfg.target_period_ps = 1'000;
  cfg.reference = c;
  const auto result = size_buffers(g, {e}, cfg);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.capacities[0], 16u);  // burst lower bound
}

TEST(BufferSizing, LowerBoundHelper) {
  Graph g;
  const ActorId p = g.add_actor("P", {1});
  const ActorId c = g.add_actor("C", {1, 1});
  Edge e = make_edge("e", p, c, {6}, {2, 4});
  e.initial_tokens = 3;
  const EdgeId eid = g.add_edge(e);
  EXPECT_EQ(capacity_lower_bound(g, eid), 6u);
}

TEST(BufferSizing, MonotoneTradeoffTighterPeriodNeedsNoLessBuffer) {
  // Multi-rate pipeline where buffering enables pipelining overlap.
  Graph g;
  const ActorId p = g.add_actor("P", {50});
  const ActorId m = g.add_actor("M", {10, 180, 10});
  const ActorId c = g.add_actor("C", {150});
  const EdgeId pm = g.add_edge(make_edge("pm", p, m, {4}, {4, 0, 0}));
  const EdgeId mc = g.add_edge(make_edge("mc", m, c, {0, 0, 4}, {4}));

  BufferSizingConfig tight;
  tight.target_period_ps = 250;
  tight.reference = c;
  const auto tight_result = size_buffers(g, {pm, mc}, tight);
  ASSERT_TRUE(tight_result.feasible) << tight_result.message;

  BufferSizingConfig loose;
  loose.target_period_ps = 5'000;
  loose.reference = c;
  const auto loose_result = size_buffers(g, {pm, mc}, loose);
  ASSERT_TRUE(loose_result.feasible);

  std::uint64_t tight_total = 0;
  std::uint64_t loose_total = 0;
  for (const auto cap : tight_result.capacities) tight_total += cap;
  for (const auto cap : loose_result.capacities) loose_total += cap;
  EXPECT_GE(tight_total, loose_total);
}

TEST(BufferSizing, InconsistentGraphRejected) {
  Graph g;
  const ActorId a = g.add_actor("a", {1});
  const ActorId b = g.add_actor("b", {1});
  const EdgeId ab = g.add_edge(make_edge("ab", a, b, {2}, {1}));
  const EdgeId ba = g.add_edge(make_edge("ba", b, a, {1}, {1}));
  BufferSizingConfig cfg;
  cfg.target_period_ps = 100;
  cfg.reference = a;
  const auto result = size_buffers(g, {ab, ba}, cfg);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.message.find("inconsistent"), std::string::npos);
}

TEST(BufferSizing, ZeroTargetPeriodThrows) {
  Pipeline pl;
  BufferSizingConfig cfg;
  cfg.target_period_ps = 0;
  cfg.reference = pl.c;
  EXPECT_THROW((void)size_buffers(pl.g, {pl.pm, pl.mc}, cfg), Error);
}

}  // namespace
}  // namespace rtsm::csdf
