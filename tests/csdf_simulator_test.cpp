#include <gtest/gtest.h>

#include "csdf/analysis.hpp"
#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"

namespace rtsm::csdf {
namespace {

Edge make_edge(const std::string& name, ActorId src, ActorId dst,
               std::vector<std::uint32_t> prod, std::vector<std::uint32_t> cons,
               std::optional<std::uint32_t> cap = std::nullopt,
               std::uint32_t init = 0) {
  Edge e;
  e.name = name;
  e.src = src;
  e.dst = dst;
  e.production = std::move(prod);
  e.consumption = std::move(cons);
  e.capacity = cap;
  e.initial_tokens = init;
  return e;
}

TEST(Simulator, PipelinePeriodIsBottleneckActor) {
  // P(100) -> C(250): self-timed steady state is paced by C at 250 ps.
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {250});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 4));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, c);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 250u);
}

TEST(Simulator, SourcePacedPipeline) {
  // Slow producer paces a fast consumer.
  Graph g;
  const ActorId p = g.add_actor("P", {400});
  const ActorId c = g.add_actor("C", {50});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 2));
  const auto rv = repetition_vector(g);
  const auto sim = simulate(g, *rv, c);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 400u);
}

TEST(Simulator, UnbufferedDeadlockDetected) {
  // A cycle with no initial tokens cannot fire at all.
  Graph g;
  const ActorId a = g.add_actor("a", {10});
  const ActorId b = g.add_actor("b", {10});
  g.add_edge(make_edge("ab", a, b, {1}, {1}));
  g.add_edge(make_edge("ba", b, a, {1}, {1}));  // no initial tokens
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, a);
  EXPECT_EQ(sim.status, SimulationStatus::Deadlock);
  EXPECT_NE(sim.message.find("deadlock"), std::string::npos);
}

TEST(Simulator, CycleWithTokenRuns) {
  Graph g;
  const ActorId a = g.add_actor("a", {10});
  const ActorId b = g.add_actor("b", {30});
  g.add_edge(make_edge("ab", a, b, {1}, {1}));
  g.add_edge(make_edge("ba", b, a, {1}, {1}, std::nullopt, 1));
  const auto rv = repetition_vector(g);
  const auto sim = simulate(g, *rv, b);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  // One token circulates: period = wcet(a) + wcet(b).
  EXPECT_EQ(sim.period_ps, 40u);
}

TEST(Simulator, TightCapacityThrottles) {
  // P(100) -> C(300), capacity 1: P must wait for C each round.
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {300});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 1));
  const auto rv = repetition_vector(g);
  const auto sim = simulate(g, *rv, c);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 300u);  // still C-bound; capacity 1 suffices here
}

TEST(Simulator, MultiRateThroughput) {
  // P produces 4/firing @200ps; C consumes 1/firing @100ps.
  // Iteration = 1 P-firing + 4 C-firings; C is the bottleneck: 400ps.
  Graph g;
  const ActorId p = g.add_actor("P", {200});
  const ActorId c = g.add_actor("C", {100});
  g.add_edge(make_edge("e", p, c, {4}, {1}, 8));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{1, 4}));
  const auto sim = simulate(g, *rv, c);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 400u);
}

TEST(Simulator, PhasedActorHonoursPhases) {
  // Actor with read(10) / compute(100) / write(10) phases between two
  // single-phase endpoints.
  Graph g;
  const ActorId src = g.add_actor("src", {120});
  const ActorId mid = g.add_actor("mid", {10, 100, 10});
  const ActorId dst = g.add_actor("dst", {60});
  g.add_edge(make_edge("in", src, mid, {8}, {8, 0, 0}, 16));
  g.add_edge(make_edge("out", mid, dst, {0, 0, 8}, {8}, 16));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, dst);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 120u);  // mid's cycle: 10+100+10
}

TEST(Simulator, LatencyProbeMeasuresPipelineDepth) {
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId m = g.add_actor("M", {100});
  const ActorId c = g.add_actor("C", {100});
  g.add_edge(make_edge("pm", p, m, {1}, {1}, 2));
  g.add_edge(make_edge("mc", m, c, {1}, {1}, 2));
  const auto rv = repetition_vector(g);
  const auto sim = simulate(g, *rv, c, SimulationConfig{},
                            LatencyProbe{p, c});
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_GE(sim.latency_ps, 300u);  // three stages of 100 each
  EXPECT_LE(sim.latency_ps, 600u);
}

TEST(Simulator, EventLimitReported) {
  Graph g;
  const ActorId p = g.add_actor("P", {1});
  const ActorId c = g.add_actor("C", {1});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 4));
  const auto rv = repetition_vector(g);
  SimulationConfig cfg;
  cfg.max_events = 10;
  cfg.warmup_iterations = 100;
  cfg.measured_iterations = 100;
  const auto sim = simulate(g, *rv, c, cfg);
  EXPECT_EQ(sim.status, SimulationStatus::EventLimit);
}

TEST(Simulator, DeterministicAcrossRuns) {
  Graph g;
  const ActorId a = g.add_actor("a", {70});
  const ActorId b = g.add_actor("b", {110});
  const ActorId c = g.add_actor("c", {90});
  g.add_edge(make_edge("ab", a, b, {3}, {2}, 12));
  g.add_edge(make_edge("bc", b, c, {2}, {3}, 12));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto s1 = simulate(g, *rv, c);
  const auto s2 = simulate(g, *rv, c);
  EXPECT_EQ(s1.period_ps, s2.period_ps);
  EXPECT_EQ(s1.events, s2.events);
  EXPECT_EQ(s1.end_time_ps, s2.end_time_ps);
}

TEST(Simulator, PeriodNeverBeatsStructuralBound) {
  Graph g;
  const ActorId a = g.add_actor("a", {123});
  const ActorId b = g.add_actor("b", {77});
  g.add_edge(make_edge("ab", a, b, {5}, {3}, 30));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, b);
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_GE(sim.period_ps, min_period_bound_ps(g, *rv));
}

TEST(Simulator, AdaptiveWindowStopsEarlyWithSamePeriod) {
  // A two-actor pipeline settles into its steady state immediately, so an
  // adaptive window converges long before the fixed 64-iteration budget —
  // with the identical period estimate.
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {250});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 4));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);

  SimulationConfig fixed;
  fixed.warmup_iterations = 4;
  fixed.measured_iterations = 64;
  const auto full = simulate(g, *rv, c, fixed);
  ASSERT_EQ(full.status, SimulationStatus::Completed);
  EXPECT_EQ(full.measured_iterations_used, 64u);
  EXPECT_FALSE(full.converged_early);

  SimulationConfig adaptive = fixed;
  adaptive.convergence_window = 3;
  adaptive.convergence_epsilon = 0.01;
  const auto early = simulate(g, *rv, c, adaptive);
  ASSERT_EQ(early.status, SimulationStatus::Completed);
  EXPECT_TRUE(early.converged_early);
  EXPECT_LT(early.measured_iterations_used, 64u);
  EXPECT_LT(early.events, full.events);
  EXPECT_EQ(early.period_ps, full.period_ps);
}

TEST(Simulator, AdaptiveWindowDisabledByDefault) {
  SimulationConfig config;
  EXPECT_FALSE(config.adaptive());
  config.convergence_window = 3;
  EXPECT_FALSE(config.adaptive());  // needs a positive epsilon too
  config.convergence_epsilon = 0.01;
  EXPECT_TRUE(config.adaptive());
}

TEST(Simulator, WarmupZeroWorks) {
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {100});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 2));
  const auto rv = repetition_vector(g);
  SimulationConfig cfg;
  cfg.warmup_iterations = 0;
  cfg.measured_iterations = 4;
  const auto sim = simulate(g, *rv, c, cfg);
  EXPECT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_GT(sim.period_ps, 0u);
}

// ---------------------------------------------------------------------------
// Golden results of the event-by-event simulation. The simulator may skip
// whole periods of the self-timed schedule once it has repeated; every
// figure below was taken from a run that executed each firing, so a skip
// that is not exact shows up as a changed end time, period or latency.

/// Three-actor ring a -> b -> c -> a carrying two tokens: the tokens bunch
/// up, so c's iterations alternate 20 ps and 40 ps apart and the schedule
/// only repeats every two reference iterations.
Graph two_token_ring(ActorId& a, ActorId& c) {
  Graph g;
  a = g.add_actor("a", {20});
  const ActorId b = g.add_actor("b", {20});
  c = g.add_actor("c", {20});
  g.add_edge(make_edge("ab", a, b, {1}, {1}));
  g.add_edge(make_edge("bc", b, c, {1}, {1}));
  g.add_edge(make_edge("ca", c, a, {1}, {1}, std::nullopt, 2));
  return g;
}

TEST(SimulatorGolden, EventLimitInsideRepeatingStretch) {
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {250});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 4));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  SimulationConfig cfg;
  cfg.warmup_iterations = 100;
  cfg.measured_iterations = 100;
  cfg.max_events = 151;
  const auto sim = simulate(g, *rv, c, cfg);
  EXPECT_EQ(sim.status, SimulationStatus::EventLimit);
  EXPECT_EQ(sim.message, "event limit reached at t=18450ps");
  EXPECT_EQ(sim.end_time_ps, 18450u);
  EXPECT_EQ(sim.events, 151u);
  // The limit lies past the first recurrence: periods were skipped on the
  // way, and the firings up to the limit itself were executed.
  EXPECT_GT(sim.events_skipped, 0u);
  EXPECT_LT(sim.events_skipped, sim.events);
}

TEST(SimulatorGolden, WarmupZeroMultiRateChain) {
  Graph g;
  const ActorId a = g.add_actor("a", {70});
  const ActorId b = g.add_actor("b", {110});
  const ActorId c = g.add_actor("c", {90});
  g.add_edge(make_edge("ab", a, b, {3}, {2}, 12));
  g.add_edge(make_edge("bc", b, c, {2}, {3}, 12));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  SimulationConfig cfg;
  cfg.warmup_iterations = 0;
  cfg.measured_iterations = 16;
  const auto sim = simulate(g, *rv, c, cfg, LatencyProbe{a, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 330u);
  EXPECT_EQ(sim.max_period_ps, 330u);
  EXPECT_EQ(sim.latency_ps, 970u);
  EXPECT_EQ(sim.end_time_ps, 5440u);
  EXPECT_EQ(sim.events, 116u);
  EXPECT_EQ(sim.measured_iterations_used, 16u);
  EXPECT_GT(sim.events_skipped, 0u);
}

TEST(SimulatorGolden, LatencyProbeOnMultiPhaseMultiRateGraph) {
  // src fires twice per iteration, the phased mid twice, the phased dst
  // three times (rv = 2, 2, 3).
  Graph g;
  const ActorId src = g.add_actor("src", {120});
  const ActorId mid = g.add_actor("mid", {10, 100, 10});
  const ActorId dst = g.add_actor("dst", {30, 20});
  g.add_edge(make_edge("in", src, mid, {8}, {8, 0, 0}, 16));
  g.add_edge(make_edge("out", mid, dst, {0, 0, 6}, {2, 2}, 12));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{2, 2, 3}));
  const auto sim =
      simulate(g, *rv, dst, SimulationConfig{}, LatencyProbe{src, dst});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 240u);
  EXPECT_EQ(sim.max_period_ps, 240u);
  EXPECT_EQ(sim.latency_ps, 430u);
  EXPECT_EQ(sim.end_time_ps, 5950u);
  EXPECT_EQ(sim.events, 338u);
  EXPECT_GT(sim.events_skipped, 0u);
}

TEST(SimulatorGolden, LatencyProbeSinkBehindTheReference) {
  // The probe's sink c completes an iteration only after the reference b
  // has moved on, so the sink records of the measured window are those a
  // skip must copy forward.
  Graph g;
  const ActorId a = g.add_actor("a", {48, 19, 50});
  const ActorId b = g.add_actor("b", {44, 28});
  const ActorId c = g.add_actor("c", {1});
  g.add_edge(make_edge("ab", a, b, {4, 1, 4}, {4, 2}, 11));
  g.add_edge(make_edge("bc", b, c, {3, 0}, {9}, 13, 9));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{2, 3, 1}));
  SimulationConfig cfg;
  cfg.warmup_iterations = 10;
  cfg.measured_iterations = 20;
  const auto sim = simulate(g, *rv, b, cfg, LatencyProbe{a, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 234u);
  EXPECT_EQ(sim.max_period_ps, 234u);
  EXPECT_EQ(sim.latency_ps, 48u);
  EXPECT_EQ(sim.end_time_ps, 7095u);
  EXPECT_EQ(sim.events, 393u);
  EXPECT_GT(sim.events_skipped, 0u);
}

TEST(SimulatorGolden, ScheduleRepeatingEveryTwoIterations) {
  ActorId a;
  ActorId c;
  const Graph g = two_token_ring(a, c);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, c, SimulationConfig{}, LatencyProbe{a, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 30u);
  EXPECT_EQ(sim.max_period_ps, 40u);
  EXPECT_EQ(sim.latency_ps, 60u);
  EXPECT_EQ(sim.end_time_ps, 740u);
  EXPECT_EQ(sim.events, 73u);
  EXPECT_GT(sim.events_skipped, 0u);
}

TEST(SimulatorGolden, DeadlockAfterProgress) {
  // P bursts 3 tokens into a 3-token buffer, C drains 2 at a time: after
  // one firing each, 1 token is left and neither can fire again.
  Graph g;
  const ActorId p = g.add_actor("P", {10});
  const ActorId c = g.add_actor("C", {10});
  g.add_edge(make_edge("e", p, c, {3}, {2}, 3));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, c);
  EXPECT_EQ(sim.status, SimulationStatus::Deadlock);
  EXPECT_EQ(sim.message,
            "deadlock; blocked actors: P(no space on 'e') C(needs 2 on 'e')");
  EXPECT_EQ(sim.end_time_ps, 20u);
  EXPECT_EQ(sim.events, 2u);
}

TEST(SimulatorGolden, AdaptiveWindowUnchanged) {
  ActorId a;
  ActorId c;
  const Graph g = two_token_ring(a, c);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  SimulationConfig cfg;
  cfg.warmup_iterations = 4;
  cfg.measured_iterations = 64;
  cfg.convergence_window = 3;
  cfg.convergence_epsilon = 0.5;
  const auto sim = simulate(g, *rv, c, cfg, LatencyProbe{a, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_TRUE(sim.converged_early);
  EXPECT_EQ(sim.measured_iterations_used, 4u);
  EXPECT_EQ(sim.period_ps, 30u);
  EXPECT_EQ(sim.max_period_ps, 40u);
  EXPECT_EQ(sim.latency_ps, 60u);
  EXPECT_EQ(sim.end_time_ps, 260u);
  EXPECT_EQ(sim.events, 25u);
  EXPECT_EQ(sim.events_skipped, 0u);
}

TEST(SimulatorGolden, PlainPipeline) {
  Graph g;
  const ActorId p = g.add_actor("P", {100});
  const ActorId c = g.add_actor("C", {250});
  g.add_edge(make_edge("e", p, c, {1}, {1}, 4));
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const auto sim = simulate(g, *rv, c, SimulationConfig{}, LatencyProbe{p, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_EQ(sim.period_ps, 250u);
  EXPECT_EQ(sim.latency_ps, 1250u);
  EXPECT_EQ(sim.end_time_ps, 6100u);
  EXPECT_EQ(sim.events, 52u);
  // The schedule repeats after a few iterations; the rest is skipped, the
  // final iteration included: the jump lands on it.
  EXPECT_EQ(sim.events_skipped, 42u);
}

// P(10) -> C(30) over an edge of capacity 2 whose tokens arrive 25 ps after
// P's firing ends. By hand: P fires at 0 and 10 (due 35 and 45), then waits
// for space. Each C start frees a slot: P starts at 35, 65, 95, ... (due
// 70, 100, 130, ...), and C, fed from then on, ends at 65 + 30 i.
Graph delayed_pipeline() {
  Graph g;
  const ActorId p = g.add_actor("P", {10});
  const ActorId c = g.add_actor("C", {30});
  Edge e = make_edge("e", p, c, {1}, {1}, 2);
  e.latency_ps = 25;
  g.add_edge(std::move(e));
  return g;
}

TEST(SimulatorLatencyEdge, HandComputedSchedule) {
  const Graph g = delayed_pipeline();
  const ActorId p{0};
  const ActorId c{1};
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  SimulationConfig cfg;
  cfg.warmup_iterations = 2;
  cfg.measured_iterations = 4;
  const auto sim = simulate(g, *rv, c, cfg, LatencyProbe{p, c});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  // C ends at 65, 95, 125, 155, 185, 215.
  EXPECT_EQ(sim.period_ps, 30u);
  EXPECT_EQ(sim.max_period_ps, 30u);
  EXPECT_EQ(sim.end_time_ps, 215u);
  // Iteration i >= 2: P starts at 35 + 30 (i - 2), C ends 90 ps later.
  EXPECT_EQ(sim.latency_ps, 90u);
  // Firings only: P ends at 10, 20 and 45 + 30 j for j < 6; C ends 6
  // times. The six deliveries are not counted.
  EXPECT_EQ(sim.events, 14u);
}

TEST(SimulatorLatencyEdge, FastForwardWithDeliveriesPendingIsExact) {
  // At every C completion a token is in transit, so each snapshot the
  // fast-forward compares holds a pending delivery. The skipped run must
  // end exactly where the firing-by-firing schedule above does:
  // C's iteration i ends at 65 + 30 i, and 2 + 2 n firings end by then.
  const Graph g = delayed_pipeline();
  const auto rv = repetition_vector(g);
  SimulationConfig cfg;
  cfg.warmup_iterations = 8;
  cfg.measured_iterations = 1000;
  const auto sim =
      simulate(g, *rv, ActorId{1}, cfg, LatencyProbe{ActorId{0}, ActorId{1}});
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_GT(sim.events_skipped, 1000u);
  EXPECT_EQ(sim.period_ps, 30u);
  EXPECT_EQ(sim.max_period_ps, 30u);
  EXPECT_EQ(sim.latency_ps, 90u);
  EXPECT_EQ(sim.end_time_ps, 65u + 30u * 1007u);
  EXPECT_EQ(sim.events, 2u + 2u * 1008u);
}

TEST(SimulatorLatencyEdge, TokensInTransitAreNotADeadlock) {
  // P fills the single slot at 10 and nothing fires until the delivery at
  // 1010: a pending delivery keeps the run alive.
  Graph g;
  const ActorId p = g.add_actor("P", {10});
  const ActorId c = g.add_actor("C", {5});
  Edge e = make_edge("e", p, c, {1}, {1}, 1);
  e.latency_ps = 1000;
  g.add_edge(std::move(e));
  const auto rv = repetition_vector(g);
  SimulationConfig cfg;
  cfg.warmup_iterations = 1;
  cfg.measured_iterations = 3;
  const auto sim = simulate(g, *rv, c, cfg);
  ASSERT_EQ(sim.status, SimulationStatus::Completed) << sim.message;
  // P restarts when C consumes at 1010 + 1010 k; C ends 5 ps later.
  EXPECT_EQ(sim.period_ps, 1010u);
  EXPECT_EQ(sim.end_time_ps, 1015u + 3u * 1010u);
}

TEST(SimulatorLatencyEdge, CycleWithoutTokensStillDeadlocks) {
  Graph g;
  const ActorId a = g.add_actor("a", {10});
  const ActorId b = g.add_actor("b", {10});
  Edge ab = make_edge("ab", a, b, {1}, {1});
  ab.latency_ps = 50;
  g.add_edge(std::move(ab));
  g.add_edge(make_edge("ba", b, a, {1}, {1}, std::nullopt, 1));
  Edge bb = make_edge("bb", b, b, {1}, {1}, 1);
  bb.latency_ps = 7;
  g.add_edge(std::move(bb));  // b's self-loop starts empty
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  // a fires once (0..10); its token reaches b at 60, but b also needs a
  // token on its empty self-loop, which only b can produce.
  const auto sim = simulate(g, *rv, a);
  EXPECT_EQ(sim.status, SimulationStatus::Deadlock);
  EXPECT_EQ(sim.end_time_ps, 60u);
  EXPECT_EQ(sim.events, 1u);
  EXPECT_EQ(sim.message,
            "deadlock; blocked actors: a(needs 1 on 'ba') b(needs 1 on 'bb')");
}

}  // namespace
}  // namespace rtsm::csdf
