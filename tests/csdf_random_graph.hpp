// Seeded random consistent CSDF graphs and simulation windows, shared by
// the simulator and buffer-sizing differential tests.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"
#include "util/rng.hpp"

namespace rtsm::csdf::testgen {

/// "<prefix><i>", built without a literal-plus-string concatenation that
/// GCC 12 flags with a false -Wrestrict positive.
inline std::string numbered(char prefix, std::size_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

/// A random consistent CSDF graph: a chain over 2-7 actors plus a few extra
/// forward and backward edges. Each actor gets a target repetition count q;
/// an edge u -> v moves x * q_v tokens per cycle of u and x * q_u per cycle
/// of v, split unevenly (zeros included) over the phases.
inline Graph random_graph(Rng& rng) {
  Graph g;
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 7));
  std::vector<std::uint64_t> q(n);
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::uint64_t> wcet(
        static_cast<std::size_t>(rng.uniform_int(1, 3)));
    for (std::uint64_t& t : wcet) {
      t = rng.bernoulli(0.1) ? 0 : static_cast<std::uint64_t>(
                                       rng.uniform_int(1, 120));
    }
    q[a] = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    g.add_actor(numbered('a', a), std::move(wcet));
  }
  auto split = [&](std::uint64_t total, std::size_t phases) {
    std::vector<std::uint32_t> rates(phases, 0);
    for (std::uint64_t t = 0; t < total; ++t) {
      ++rates[rng.pick_index(phases)];
    }
    return rates;
  };
  auto add = [&](std::size_t u, std::size_t v) {
    const ActorId src{static_cast<ActorId::value_type>(u)};
    const ActorId dst{static_cast<ActorId::value_type>(v)};
    const auto x = static_cast<std::uint64_t>(rng.uniform_int(1, 2));
    Edge e;
    e.name = numbered('e', g.edge_count());
    e.src = src;
    e.dst = dst;
    e.production = split(x * q[v], g.actor(src).phase_count());
    e.consumption = split(x * q[u], g.actor(dst).phase_count());
    const std::uint32_t per_cycle =
        static_cast<std::uint32_t>(x * q[u] * q[v]);
    // Backward edges need initial tokens to fire at all; too few deadlock.
    if (v <= u || rng.bernoulli(0.2)) {
      e.initial_tokens =
          static_cast<std::uint32_t>(rng.uniform_int(0, 2 * per_cycle));
    }
    if (rng.bernoulli(0.75)) {
      const std::uint32_t floor = std::max(
          {e.max_production(), e.max_consumption(), e.initial_tokens});
      e.capacity = floor + static_cast<std::uint32_t>(
                               rng.uniform_int(0, 2 * per_cycle));
    }
    g.add_edge(std::move(e));
  };
  for (std::size_t a = 0; a + 1 < n; ++a) add(a, a + 1);
  const auto extra = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < extra; ++i) {
    add(rng.pick_index(n), rng.pick_index(n));
  }
  return g;
}

inline SimulationConfig random_config(Rng& rng) {
  SimulationConfig cfg;
  cfg.warmup_iterations = rng.bernoulli(0.2)
                              ? 0
                              : static_cast<std::uint32_t>(
                                    rng.uniform_int(1, 12));
  cfg.measured_iterations = static_cast<std::uint32_t>(rng.uniform_int(1, 30));
  // A reference actor starved while another cycle keeps firing runs into
  // the limit; keep that cheap for the reference's full rescans.
  cfg.max_events = rng.bernoulli(0.2)
                       ? static_cast<std::uint64_t>(rng.uniform_int(1, 400))
                       : 20'000;
  return cfg;
}

}  // namespace rtsm::csdf::testgen
