// Differential test of csdf::simulate against a plain firing-by-firing
// reference: a binary heap of firings in flight ordered by (end time, actor
// id), a full rescan of every actor after each completion, and no periodic
// fast-forward. Seeded random CSDF graphs cover multi-phase and multi-rate
// actors, zero-WCET phases, bounded and unbounded edges, cycles with and
// without enough initial tokens, warm-up 0,
// event limits and latency probes whose sink equals or lags the reference.
// A second leg gives random edges a latency (Edge::latency_ps); the
// reference keeps each delivery in transit as a pending event of its own.
// Every SimulationResult field must match; events_skipped is the only one
// the reference does not have.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "csdf/analysis.hpp"
#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"
#include "csdf_random_graph.hpp"
#include "util/rng.hpp"

namespace rtsm::csdf {
namespace {

using testgen::numbered;
using testgen::random_config;
using testgen::random_graph;

/// The self-timed semantics of csdf::simulate, executed one firing at a
/// time straight off the Graph.
SimulationResult reference_simulate(const Graph& g, const RepetitionVector& rv,
                                    ActorId reference,
                                    const SimulationConfig& config,
                                    std::optional<LatencyProbe> probe) {
  const std::size_t n = g.actor_count();
  const std::size_t num_edges = g.edge_count();
  auto actor = [&](std::size_t a) -> const Actor& {
    return g.actor(ActorId{static_cast<ActorId::value_type>(a)});
  };
  auto edge = [&](std::size_t e) -> const Edge& {
    return g.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
  };

  std::vector<std::uint32_t> phase(n, 0);
  std::vector<bool> busy(n, false);
  std::vector<std::uint64_t> cycles(n, 0);
  std::vector<std::uint64_t> tokens(num_edges);
  std::vector<std::uint64_t> reserved(num_edges, 0);
  std::vector<std::uint64_t> in_transit(num_edges, 0);
  for (std::size_t e = 0; e < num_edges; ++e) tokens[e] = edge(e).initial_tokens;

  const std::uint32_t w = config.warmup_iterations;
  const std::uint32_t m = config.measured_iterations;
  const std::uint64_t total = std::uint64_t{w} + m;
  std::vector<std::uint64_t> ref_end(total, 0);
  std::vector<std::uint64_t> src_start;
  std::vector<std::uint64_t> sink_end;
  if (probe) {
    src_start.assign(total + 2, 0);
    sink_end.assign(total + 2, 0);
  }

  // (time, key, tokens): key a < n is the end of actor a's firing, key
  // n + e a delivery of tokens on latency edge e. Firings come first among
  // equal times.
  using Event = std::tuple<std::uint64_t, std::size_t, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> in_flight;
  SimulationResult result;
  std::uint64_t now = 0;

  auto blocked_input = [&](std::size_t a) -> std::optional<std::size_t> {
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (edge(e).dst.value() == a &&
          tokens[e] < edge(e).consumption[phase[a]]) {
        return e;
      }
    }
    return std::nullopt;
  };
  auto blocked_output = [&](std::size_t a) -> std::optional<std::size_t> {
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (edge(e).src.value() == a && edge(e).capacity &&
          tokens[e] + reserved[e] + in_transit[e] +
                  edge(e).production[phase[a]] >
              *edge(e).capacity) {
        return e;
      }
    }
    return std::nullopt;
  };
  // Starts every enabled actor until none is left; starting an actor never
  // disables another, so the order of the scan does not matter.
  auto start_all = [&] {
    for (bool started = true; started;) {
      started = false;
      for (std::size_t a = 0; a < n; ++a) {
        if (busy[a] || blocked_input(a) || blocked_output(a)) continue;
        const std::uint32_t k = phase[a];
        for (std::size_t e = 0; e < num_edges; ++e) {
          if (edge(e).dst.value() == a) tokens[e] -= edge(e).consumption[k];
          if (edge(e).src.value() == a) reserved[e] += edge(e).production[k];
        }
        if (probe && a == probe->source.value() && k == 0 &&
            cycles[a] % rv.cycles[a] == 0) {
          const std::uint64_t iter = cycles[a] / rv.cycles[a];
          if (iter < src_start.size()) src_start[iter] = now;
        }
        busy[a] = true;
        in_flight.emplace(now + actor(a).wcet_ps[k], a, 0);
        started = true;
      }
    }
  };


  start_all();
  while (true) {
    if (in_flight.empty()) {
      result.status = SimulationStatus::Deadlock;
      result.message = "deadlock; blocked actors:";
      for (std::size_t a = 0; a < n; ++a) {
        if (busy[a]) continue;
        if (const auto e = blocked_input(a)) {
          result.message += " " + actor(a).name + "(needs " +
                            std::to_string(edge(*e).consumption[phase[a]]) +
                            " on '" + edge(*e).name + "')";
        }
        if (const auto e = blocked_output(a)) {
          result.message +=
              " " + actor(a).name + "(no space on '" + edge(*e).name + "')";
        }
      }
      result.end_time_ps = now;
      return result;
    }
    const auto [end, a, delivered] = in_flight.top();
    in_flight.pop();
    now = end;
    if (a >= n) {
      in_transit[a - n] -= delivered;
      tokens[a - n] += delivered;
      start_all();
      continue;
    }
    ++result.events;
    const std::uint32_t k = phase[a];
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (edge(e).src.value() != a) continue;
      const std::uint32_t produced = edge(e).production[k];
      reserved[e] -= produced;
      if (edge(e).latency_ps == 0) {
        tokens[e] += produced;
      } else if (produced > 0) {
        in_transit[e] += produced;
        in_flight.emplace(now + edge(e).latency_ps, n + e, produced);
      }
    }
    busy[a] = false;
    phase[a] = (k + 1) % actor(a).phase_count();
    if (phase[a] == 0) {
      ++cycles[a];
      if (a == reference.value() && cycles[a] % rv.cycles[a] == 0) {
        const std::uint64_t iter = cycles[a] / rv.cycles[a] - 1;
        ref_end[iter] = now;
        if (iter + 1 >= w + m) break;
      }
      if (probe && a == probe->sink.value() && cycles[a] % rv.cycles[a] == 0) {
        const std::uint64_t iter = cycles[a] / rv.cycles[a] - 1;
        if (iter < sink_end.size()) sink_end[iter] = now;
      }
    }
    if (result.events >= config.max_events) {
      result.status = SimulationStatus::EventLimit;
      result.message = "event limit reached at t=" + std::to_string(now) + "ps";
      result.end_time_ps = now;
      return result;
    }
    start_all();
  }

  result.status = SimulationStatus::Completed;
  result.end_time_ps = now;
  // Period over the measured window; with warmup == 0 it starts at
  // iteration 0, whose "previous completion" is time 0.
  const std::uint64_t t_begin = w == 0 ? ref_end[0] : ref_end[w - 1];
  const std::uint32_t spans = w == 0 ? m - 1 : m;
  result.period_ps =
      spans == 0 ? t_begin : (ref_end[w + m - 1] - t_begin + spans - 1) / spans;
  for (std::uint32_t i = (w == 0 ? 1 : w); i < w + m; ++i) {
    result.max_period_ps =
        std::max(result.max_period_ps, ref_end[i] - ref_end[i - 1]);
  }
  if (probe) {
    for (std::uint32_t i = w; i < w + m; ++i) {
      if (sink_end[i] != 0 && sink_end[i] > src_start[i]) {
        result.latency_ps =
            std::max(result.latency_ps, sink_end[i] - src_start[i]);
      }
    }
  }
  return result;
}

void expect_same(const SimulationResult& got, const SimulationResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.period_ps, want.period_ps) << where;
  EXPECT_EQ(got.max_period_ps, want.max_period_ps) << where;
  EXPECT_EQ(got.latency_ps, want.latency_ps) << where;
  EXPECT_EQ(got.events, want.events) << where;
  EXPECT_EQ(got.end_time_ps, want.end_time_ps) << where;
  EXPECT_EQ(got.message, want.message) << where;
  EXPECT_LE(got.events_skipped, got.events) << where;
}

/// Regimes a differential leg ran through.
struct LegCounts {
  std::size_t runs = 0;
  std::size_t skipped = 0;
  std::size_t deadlocks = 0;
  std::size_t limits = 0;
  std::size_t latencies = 0;
  std::size_t downstream_sinks = 0;
};

/// Compares simulate() with the reference on @p runs random graphs drawn
/// from @p rng, each passed through @p transform first.
LegCounts run_leg(Rng& rng, std::size_t runs,
                  const std::function<Graph(Graph, Rng&)>& transform) {
  LegCounts c;
  while (c.runs < runs) {
    const Graph g = transform(random_graph(rng), rng);
    const auto rv = repetition_vector(g);
    EXPECT_TRUE(rv) << "generator built an inconsistent graph";
    if (!rv) return c;
    const ActorId ref{static_cast<ActorId::value_type>(
        rng.pick_index(g.actor_count()))};
    const SimulationConfig cfg = random_config(rng);
    std::optional<LatencyProbe> probe;
    if (rng.bernoulli(0.7)) {
      const ActorId src{static_cast<ActorId::value_type>(
          rng.pick_index(g.actor_count()))};
      const ActorId sink = rng.bernoulli(0.4)
                               ? ref
                               : ActorId{static_cast<ActorId::value_type>(
                                     rng.pick_index(g.actor_count()))};
      probe = LatencyProbe{src, sink};
      if (sink.value() > ref.value()) ++c.downstream_sinks;
    }
    const SimulationResult want = reference_simulate(g, *rv, ref, cfg, probe);
    const SimulationResult got = simulate(g, *rv, ref, cfg, probe);
    expect_same(got, want, numbered('#', c.runs));
    if (::testing::Test::HasFailure()) return c;
    ++c.runs;
    c.skipped += got.events_skipped > 0 ? 1 : 0;
    c.deadlocks += want.status == SimulationStatus::Deadlock ? 1 : 0;
    c.limits += want.status == SimulationStatus::EventLimit ? 1 : 0;
    c.latencies += want.latency_ps > 0 ? 1 : 0;
  }
  return c;
}

TEST(SimulatorDifferential, MatchesFiringByFiringReference) {
  Rng rng(0x5eed1234);
  const LegCounts c =
      run_leg(rng, 3000, [](Graph g, Rng&) { return g; });
  if (::testing::Test::HasFailure()) return;
  // Every regime the generator aims at shows up in numbers.
  EXPECT_GT(c.skipped, c.runs / 4);
  EXPECT_GT(c.deadlocks, 50u);
  EXPECT_GT(c.limits, 50u);
  EXPECT_GT(c.latencies, 300u);
  EXPECT_GT(c.downstream_sinks, 100u);
}

/// @p g with a random latency on about half of its edges.
Graph with_latencies(const Graph& g, Rng& rng) {
  Graph out;
  for (const ActorId a : g.actor_ids()) {
    out.add_actor(g.actor(a).name, g.actor(a).wcet_ps);
  }
  for (const EdgeId e : g.edge_ids()) {
    Edge edge = g.edge(e);
    if (rng.bernoulli(0.5)) {
      edge.latency_ps = static_cast<std::uint64_t>(rng.uniform_int(1, 200));
    }
    out.add_edge(std::move(edge));
  }
  return out;
}

TEST(SimulatorDifferential, LatencyEdgesMatchFiringByFiringReference) {
  Rng rng(0x1a7e9c1e);
  const LegCounts c = run_leg(rng, 2000, [](Graph g, Rng& r) {
    return with_latencies(g, r);
  });
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(c.skipped, c.runs / 4);
  EXPECT_GT(c.deadlocks, 30u);
  EXPECT_GT(c.limits, 30u);
  EXPECT_GT(c.latencies, 200u);
}

}  // namespace
}  // namespace rtsm::csdf
