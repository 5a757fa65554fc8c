#include "csdf/buffer_sizing.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/error.hpp"

namespace rtsm::csdf {

std::uint32_t capacity_lower_bound(const Graph& graph, EdgeId edge) {
  const Edge& e = graph.edge(edge);
  return std::max({e.max_production(), e.max_consumption(), e.initial_tokens,
                   std::uint32_t{1}});
}

BufferSizingResult size_buffers(Graph& graph, const std::vector<EdgeId>& edges,
                                const BufferSizingConfig& config) {
  require(config.target_period_ps > 0,
          "buffer sizing requires a positive target period");

  BufferSizingResult result;
  result.capacities.assign(edges.size(), 0);

  const auto rv = repetition_vector(graph);
  if (!rv) {
    result.message = "graph is inconsistent; no repetition vector";
    return result;
  }

  auto apply = [&](const std::vector<std::uint32_t>& caps) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      graph.set_capacity(edges[i], caps[i]);
    }
  };

  // Every simulation of this call, by capacity vector. The graph differs
  // between runs only in the sized capacities and the simulator is
  // deterministic, so a vector is simulated at most once: the final
  // reporting run in particular repeats the search's last accepted trial.
  std::map<std::vector<std::uint32_t>, SimulationResult> simulated;
  auto run_sim = [&](const std::vector<std::uint32_t>& caps)
      -> const SimulationResult& {
    apply(caps);
    const auto [it, fresh] = simulated.try_emplace(caps);
    if (fresh) {
      it->second = simulate(graph, *rv, config.reference, config.simulation,
                            config.probe);
      ++result.simulations;
      result.events_simulated += it->second.events;
      result.events_skipped += it->second.events_skipped;
    }
    return it->second;
  };

  auto meets = [&](const SimulationResult& sim) {
    return sim.status == SimulationStatus::Completed &&
           sim.period_ps <= config.target_period_ps;
  };

  // Monotone dominance oracle. Throughput under the conservative firing
  // rule is non-decreasing in every capacity (the same lattice property
  // every binary search below already relies on), so a candidate pointwise
  // >= a known-feasible vector is feasible and one pointwise <= a
  // known-infeasible vector is infeasible — no simulation needed. Cold
  // runs seed the verdict sets from their own simulations; a warm-start
  // hint pre-seeds them with one verified vector, which prunes most of the
  // per-edge trim when the previous solution is close. Either way every
  // verdict is exact, so the chosen capacities are identical with and
  // without the hint.
  std::vector<std::vector<std::uint32_t>> known_feasible;
  std::vector<std::vector<std::uint32_t>> known_infeasible;
  auto record_verdict = [&](const std::vector<std::uint32_t>& caps, bool ok) {
    (ok ? known_feasible : known_infeasible).push_back(caps);
  };
  auto dominates = [](const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] < b[i]) return false;
    }
    return true;
  };
  auto implied = [&](const std::vector<std::uint32_t>& caps)
      -> std::optional<bool> {
    for (const auto& f : known_feasible) {
      if (dominates(caps, f)) return true;
    }
    for (const auto& g : known_infeasible) {
      if (dominates(g, caps)) return false;
    }
    return std::nullopt;
  };
  auto meets_cached = [&](const std::vector<std::uint32_t>& caps,
                          bool use_dominance) -> bool {
    if (use_dominance) {
      if (const auto verdict = implied(caps)) {
        ++result.dominance_skips;
        return *verdict;
      }
    }
    const bool ok = meets(run_sim(caps));
    record_verdict(caps, ok);
    return ok;
  };

  // Per-edge bounds. The upper bound of four iterations' worth of tokens
  // (plus initial tokens) removes the back-pressure the graph can exert in
  // steady state: with whole-symbol bursts crossing multi-hop paths and
  // join synchronisation, pipeline stages can be up to a few symbols apart,
  // so two iterations of slack is measurably too tight (see the X1 bench).
  std::vector<std::uint32_t> lower(edges.size());
  std::vector<std::uint32_t> upper(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    lower[i] = capacity_lower_bound(graph, edges[i]);
    const std::uint64_t per_iter = tokens_per_iteration(graph, *rv, edges[i]);
    const std::uint64_t ub = std::max<std::uint64_t>(
        lower[i], 4 * per_iter + graph.edge(edges[i]).initial_tokens);
    upper[i] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ub, config.capacity_limit));
  }

  // Verify the warm-start hint once on this graph; its exact verdict seeds
  // the dominance sets.
  if (config.warm_start && config.warm_start->size() == edges.size()) {
    std::vector<std::uint32_t> hint = *config.warm_start;
    for (std::size_t i = 0; i < hint.size(); ++i) {
      hint[i] = std::clamp(hint[i], lower[i], upper[i]);
    }
    result.warm_started = true;
    record_verdict(hint, meets(run_sim(hint)));
  }

  // Feasibility gate at the generous upper bound. A feasible hint implies
  // the gate (hint <= upper pointwise); an infeasible gate still needs the
  // simulation for the explanatory message.
  auto fail_at_upper = [&](const SimulationResult& s) {
    result.message =
        "target period unreachable even with generous buffers: " +
        (s.status == SimulationStatus::Completed
             ? "achieved " + std::to_string(s.period_ps) + "ps > target " +
                   std::to_string(config.target_period_ps) + "ps"
             : s.message);
    result.achieved_period_ps = s.period_ps;
    apply(upper);
  };
  SimulationResult sim;
  bool upper_ok;
  if (const auto verdict = implied(upper); verdict && *verdict) {
    ++result.dominance_skips;
    upper_ok = true;
  } else {
    sim = run_sim(upper);
    upper_ok = meets(sim);
    record_verdict(upper, upper_ok);
  }
  if (!upper_ok) {
    fail_at_upper(sim);
    return result;
  }

  // Binary search a common interpolation factor t/kResolution between the
  // lower and upper bounds (monotone in t), then per-edge trim, largest
  // capacity first: binary search the minimal value for each edge with all
  // others fixed.
  constexpr std::uint32_t kResolution = 64;
  auto blend = [&](std::uint32_t t) {
    std::vector<std::uint32_t> caps(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const std::uint64_t span = upper[i] - lower[i];
      caps[i] = lower[i] + static_cast<std::uint32_t>(span * t / kResolution);
    }
    return caps;
  };

  auto search = [&](bool use_dominance) {
    std::uint32_t lo_t = 0;
    std::uint32_t hi_t = kResolution;
    if (meets_cached(blend(0), use_dominance)) {
      hi_t = 0;
    } else {
      while (hi_t - lo_t > 1) {
        const std::uint32_t mid = lo_t + (hi_t - lo_t) / 2;
        if (meets_cached(blend(mid), use_dominance)) {
          hi_t = mid;
        } else {
          lo_t = mid;
        }
      }
    }
    std::vector<std::uint32_t> caps = blend(hi_t);

    std::vector<std::size_t> order(edges.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (caps[a] != caps[b]) return caps[a] > caps[b];
      return a < b;
    });
    for (const std::size_t i : order) {
      std::uint32_t lo = lower[i];
      std::uint32_t hi = caps[i];
      if (lo >= hi) continue;
      std::vector<std::uint32_t> trial = caps;
      trial[i] = lo;
      if (meets_cached(trial, use_dominance)) {
        caps[i] = lo;
        continue;
      }
      while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        trial[i] = mid;
        if (meets_cached(trial, use_dominance)) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      caps[i] = hi;
    }
    return caps;
  };

  // The final run provides the reported period and latency with the chosen
  // capacities applied to the graph (simulated only when the search never
  // did, i.e. when dominance implied the chosen vector's verdict).
  std::vector<std::uint32_t> caps = search(/*use_dominance=*/true);
  sim = run_sim(caps);
  if (!meets(sim)) {
    // The dominance oracle is exact only if the *windowed* period
    // measurement is monotone in the capacities; on a borderline graph the
    // finite window can break that. Re-establish the feasibility gate with
    // a real simulation, then redo the search with every candidate
    // simulated — each accepted step is then verified by its own run and
    // the final re-check below cannot disagree.
    sim = run_sim(upper);
    if (!meets(sim)) {
      fail_at_upper(sim);
      return result;
    }
    caps = search(/*use_dominance=*/false);
    sim = run_sim(caps);
  }
  require(meets(sim), "buffer sizing lost feasibility during trim");

  result.feasible = true;
  result.capacities = caps;
  result.achieved_period_ps = sim.period_ps;
  result.latency_ps = sim.latency_ps;
  return result;
}

}  // namespace rtsm::csdf
