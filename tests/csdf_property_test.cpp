#include <gtest/gtest.h>

#include "csdf/analysis.hpp"
#include "csdf/buffer_sizing.hpp"
#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace rtsm::csdf {
namespace {

/// Random consistent chain of actors with random multi-phase rates. Chains
/// are consistent by construction (rates are propagated, not solved).
Graph random_chain(Rng& rng, std::size_t actors, std::vector<EdgeId>* edges) {
  Graph g;
  std::vector<ActorId> ids;
  for (std::size_t i = 0; i < actors; ++i) {
    const std::size_t phases = static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<std::uint64_t> wcet;
    for (std::size_t k = 0; k < phases; ++k) {
      wcet.push_back(static_cast<std::uint64_t>(rng.uniform_int(10, 300)));
    }
    std::string name = "a";
    name += std::to_string(i);
    ids.push_back(g.add_actor(std::move(name), std::move(wcet)));
  }
  for (std::size_t i = 0; i + 1 < actors; ++i) {
    const Actor& src = g.actor(ids[i]);
    const Actor& dst = g.actor(ids[i + 1]);
    // Random per-phase rates, at least one positive on each side.
    auto rates = [&](std::size_t phases, std::uint32_t max_rate) {
      std::vector<std::uint32_t> r(phases, 0);
      for (auto& x : r) {
        x = static_cast<std::uint32_t>(rng.uniform_int(0, max_rate));
      }
      if (std::all_of(r.begin(), r.end(), [](auto v) { return v == 0; })) {
        r[0] = 1;
      }
      return r;
    };
    Edge e;
    e.name = "e";
    e.name += std::to_string(i);
    e.src = ids[i];
    e.dst = ids[i + 1];
    e.production = rates(src.phase_count(), 4);
    e.consumption = rates(dst.phase_count(), 4);
    const EdgeId eid = g.add_edge(e);
    if (edges != nullptr) edges->push_back(eid);
  }
  return g;
}

class CsdfChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdfChainProperty, RepetitionVectorSatisfiesAllBalanceEquations) {
  Rng rng(GetParam());
  const Graph g = random_chain(rng, 2 + GetParam() % 5, nullptr);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv.has_value());
  for (const EdgeId eid : g.edge_ids()) {
    const Edge& e = g.edge(eid);
    EXPECT_EQ(rv->cycles[e.src.value()] * e.tokens_per_src_cycle(),
              rv->cycles[e.dst.value()] * e.tokens_per_dst_cycle())
        << "edge " << e.name;
  }
}

TEST_P(CsdfChainProperty, RepetitionVectorIsMinimal) {
  Rng rng(GetParam());
  const Graph g = random_chain(rng, 2 + GetParam() % 5, nullptr);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv.has_value());
  std::int64_t gcd = 0;
  for (const auto q : rv->cycles) {
    gcd = gcd64(gcd, static_cast<std::int64_t>(q));
  }
  EXPECT_EQ(gcd, 1);
}

TEST_P(CsdfChainProperty, UnboundedSimulationMeetsStructuralBound) {
  Rng rng(GetParam() + 1000);
  const Graph g = random_chain(rng, 2 + GetParam() % 4, nullptr);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv.has_value());
  const ActorId ref{static_cast<ActorId::value_type>(g.actor_count() - 1)};
  const auto sim = simulate(g, *rv, ref);
  ASSERT_EQ(sim.status, SimulationStatus::Completed) << sim.message;
  EXPECT_GE(sim.period_ps, min_period_bound_ps(g, *rv));
  // Acyclic chains without capacities reach the bound exactly.
  EXPECT_EQ(sim.period_ps, min_period_bound_ps(g, *rv));
}

TEST_P(CsdfChainProperty, ThroughputMonotoneInCapacity) {
  Rng rng(GetParam() + 2000);
  std::vector<EdgeId> edges;
  Graph g = random_chain(rng, 3 + GetParam() % 3, &edges);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv.has_value());
  const ActorId ref{static_cast<ActorId::value_type>(g.actor_count() - 1)};

  // Small but deadlock-free capacities vs. doubled capacities: the period
  // must not get worse with more buffering.
  std::uint64_t small_period = 0;
  {
    for (const EdgeId e : edges) {
      const std::uint32_t lb = capacity_lower_bound(g, e);
      g.set_capacity(e, lb * 2);
    }
    const auto sim = simulate(g, *rv, ref);
    if (sim.status != SimulationStatus::Completed) {
      GTEST_SKIP() << "tight capacities deadlock for this seed";
    }
    small_period = sim.period_ps;
  }
  {
    for (const EdgeId e : edges) {
      g.set_capacity(e, *g.edge(e).capacity * 2);
    }
    const auto sim = simulate(g, *rv, ref);
    ASSERT_EQ(sim.status, SimulationStatus::Completed);
    EXPECT_LE(sim.period_ps, small_period);
  }
}

TEST_P(CsdfChainProperty, BufferSizingResultSustainsTarget) {
  Rng rng(GetParam() + 3000);
  std::vector<EdgeId> edges;
  Graph g = random_chain(rng, 3, &edges);
  const auto rv = repetition_vector(g);
  ASSERT_TRUE(rv.has_value());
  const ActorId ref{static_cast<ActorId::value_type>(g.actor_count() - 1)};

  // Target: 150% of the structural bound — always reachable.
  BufferSizingConfig cfg;
  cfg.target_period_ps = min_period_bound_ps(g, *rv) * 3 / 2;
  cfg.reference = ref;
  const auto result = size_buffers(g, edges, cfg);
  ASSERT_TRUE(result.feasible) << result.message;

  // Independent re-check with the chosen capacities.
  const auto sim = simulate(g, *rv, ref);
  ASSERT_EQ(sim.status, SimulationStatus::Completed);
  EXPECT_LE(sim.period_ps, cfg.target_period_ps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfChainProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace rtsm::csdf
