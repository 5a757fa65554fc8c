#include <gtest/gtest.h>

#include "csdf/analysis.hpp"
#include "csdf/graph.hpp"
#include "util/error.hpp"

namespace rtsm::csdf {
namespace {

TEST(CsdfGraph, ActorNeedsPhases) {
  Graph g;
  EXPECT_THROW(g.add_actor("a", {}), Error);
}

TEST(CsdfGraph, EdgePhaseMismatchRejected) {
  Graph g;
  const ActorId a = g.add_actor("a", {10, 20});
  const ActorId b = g.add_actor("b", {5});
  Edge e;
  e.name = "a->b";
  e.src = a;
  e.dst = b;
  e.production = {1};  // must have 2 entries
  e.consumption = {2};
  EXPECT_THROW(g.add_edge(e), Error);
}

TEST(CsdfGraph, CapacityBelowBurstRejected) {
  Graph g;
  const ActorId a = g.add_actor("a", {10});
  const ActorId b = g.add_actor("b", {5});
  Edge e;
  e.name = "a->b";
  e.src = a;
  e.dst = b;
  e.production = {8};
  e.consumption = {8};
  e.capacity = 4;  // < burst of 8
  EXPECT_THROW(g.add_edge(e), Error);
}

TEST(CsdfGraph, ActorByName) {
  Graph g;
  g.add_actor("x", {1});
  const ActorId y = g.add_actor("y", {1});
  EXPECT_EQ(g.actor_by_name("y"), y);
  EXPECT_THROW((void)g.actor_by_name("z"), Error);
}

TEST(CsdfGraph, SetCapacityRejectionMessages) {
  Graph g;
  const ActorId a = g.add_actor("a", {10});
  const ActorId b = g.add_actor("b", {5});
  Edge e;
  e.name = "a->b";
  e.src = a;
  e.dst = b;
  e.production = {8};
  e.consumption = {2};
  e.initial_tokens = 10;
  const EdgeId id = g.add_edge(e);
  auto text = [&](std::uint32_t capacity) -> std::string {
    try {
      g.set_capacity(id, capacity);
    } catch (const Error& err) {
      return err.what();
    }
    return "";
  };
  EXPECT_EQ(text(7),
            "edge 'a->b': capacity 7 below the largest single-phase "
            "transfer");
  EXPECT_EQ(text(9), "edge 'a->b': initial tokens exceed capacity");
  EXPECT_EQ(text(10), "");
  EXPECT_EQ(g.edge(id).capacity, std::optional<std::uint32_t>{10});
}

Graph producer_consumer(std::uint32_t prod, std::uint32_t cons) {
  Graph g;
  const ActorId a = g.add_actor("P", {100});
  const ActorId b = g.add_actor("C", {100});
  Edge e;
  e.name = "P->C";
  e.src = a;
  e.dst = b;
  e.production = {prod};
  e.consumption = {cons};
  g.add_edge(e);
  return g;
}

TEST(RepetitionVector, SdfRates) {
  // P produces 3/firing, C consumes 2/firing -> q = (2, 3).
  const Graph g = producer_consumer(3, 2);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(rv->firings, (std::vector<std::uint64_t>{2, 3}));
}

TEST(RepetitionVector, MatchedRatesGiveOnes) {
  const Graph g = producer_consumer(4, 4);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{1, 1}));
}

TEST(RepetitionVector, MultiPhaseCountsCycles) {
  Graph g;
  const ActorId a = g.add_actor("P", {10, 20});      // 2 phases
  const ActorId b = g.add_actor("C", {5, 5, 5});     // 3 phases
  Edge e;
  e.name = "P->C";
  e.src = a;
  e.dst = b;
  e.production = {3, 3};     // 6 per cycle
  e.consumption = {2, 2, 2}; // 6 per cycle
  g.add_edge(e);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(rv->firings, (std::vector<std::uint64_t>{2, 3}));
}

TEST(RepetitionVector, InconsistentCycleDetected) {
  Graph g;
  const ActorId a = g.add_actor("a", {1});
  const ActorId b = g.add_actor("b", {1});
  Edge ab;
  ab.name = "ab";
  ab.src = a;
  ab.dst = b;
  ab.production = {2};
  ab.consumption = {1};
  g.add_edge(ab);
  Edge ba;
  ba.name = "ba";
  ba.src = b;
  ba.dst = a;
  ba.production = {1};
  ba.consumption = {1};  // forces q_a = 2 q_b and q_a = q_b -> inconsistent
  g.add_edge(ba);
  EXPECT_FALSE(repetition_vector(g).has_value());
  EXPECT_FALSE(is_consistent(g));
}

TEST(RepetitionVector, ConsistentCycleAccepted) {
  Graph g;
  const ActorId a = g.add_actor("a", {1});
  const ActorId b = g.add_actor("b", {1});
  Edge ab;
  ab.name = "ab";
  ab.src = a;
  ab.dst = b;
  ab.production = {1};
  ab.consumption = {1};
  g.add_edge(ab);
  Edge ba;
  ba.name = "ba";
  ba.src = b;
  ba.dst = a;
  ba.production = {1};
  ba.consumption = {1};
  ba.initial_tokens = 1;
  g.add_edge(ba);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{1, 1}));
}

TEST(RepetitionVector, DisconnectedReturnsNullopt) {
  Graph g;
  g.add_actor("a", {1});
  g.add_actor("b", {1});
  EXPECT_FALSE(repetition_vector(g).has_value());
}

TEST(RepetitionVector, ChainScalesThroughStages) {
  // a -(2:1)-> b -(3:1)-> c : q = (1, 2, 6) scaled minimally.
  Graph g;
  const ActorId a = g.add_actor("a", {1});
  const ActorId b = g.add_actor("b", {1});
  const ActorId c = g.add_actor("c", {1});
  Edge ab;
  ab.name = "ab";
  ab.src = a;
  ab.dst = b;
  ab.production = {2};
  ab.consumption = {1};
  g.add_edge(ab);
  Edge bc;
  bc.name = "bc";
  bc.src = b;
  bc.dst = c;
  bc.production = {3};
  bc.consumption = {1};
  g.add_edge(bc);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(rv->cycles, (std::vector<std::uint64_t>{1, 2, 6}));
}

TEST(Analysis, MinPeriodBoundPicksBusiestActor) {
  const Graph g = producer_consumer(3, 2);  // q = (2, 3), both wcet 100
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(min_period_bound_ps(g, *rv), 300u);  // C: 3 x 100
}

TEST(Analysis, TokensPerIteration) {
  const Graph g = producer_consumer(3, 2);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  EXPECT_EQ(tokens_per_iteration(g, *rv, EdgeId{0}), 6u);
}

TEST(Analysis, BalanceEquationsHoldOnSolution) {
  const Graph g = producer_consumer(5, 7);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv);
  const Edge& e = g.edge(EdgeId{0});
  EXPECT_EQ(rv->cycles[e.src.value()] * e.tokens_per_src_cycle(),
            rv->cycles[e.dst.value()] * e.tokens_per_dst_cycle());
}

}  // namespace
}  // namespace rtsm::csdf
