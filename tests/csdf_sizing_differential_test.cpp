// Differential test of csdf::size_buffers, which simulates the structural
// lower bound before the upper-bound gate, against a copy of the previous
// upper-first search kept in this file. On seeded random CSDF graphs with
// random short windows, optional warm-start hints and latency probes, both
// must return the same verdict, capacities, period, latency and message,
// except where the lower bound meets the target while the upper bound's
// windowed period misses it (the window is not monotone in the
// capacities). Each such case is counted, and its answer must meet the
// target by its own simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "csdf/analysis.hpp"
#include "csdf/buffer_sizing.hpp"
#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"
#include "csdf_random_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rtsm::csdf {
namespace {

using testgen::numbered;
using testgen::random_config;
using testgen::random_graph;

/// The upper-first search as it stood before the lower bound was simulated
/// first: gate at the upper bound, then blend search and per-edge trim.
BufferSizingResult upper_first_size_buffers(
    Graph& graph, const std::vector<EdgeId>& edges,
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

/// Everything a sizing call reports or leaves behind, plus a thrown
/// rtsm::Error's text.
struct Outcome {
  BufferSizingResult result;
  std::vector<std::optional<std::uint32_t>> applied;
  std::string error;
};

template <typename Sizer>
Outcome run(Sizer sizer, Graph g, const std::vector<EdgeId>& edges,
            const BufferSizingConfig& cfg) {
  Outcome out;
  try {
    out.result = sizer(g, edges, cfg);
  } catch (const Error& e) {
    out.error = e.what();
  }
  for (const EdgeId e : edges) out.applied.push_back(g.edge(e).capacity);
  return out;
}

TEST(SizingDifferential, LowerBoundFirstMatchesUpperFirstSearch) {
  Rng rng(0x51e1234);
  constexpr std::size_t kGraphs = 50'000;
  std::size_t at_lower = 0;
  std::size_t above_lower = 0;
  std::size_t infeasible = 0;
  std::size_t warm = 0;
  std::size_t window_artefacts = 0;
  std::size_t saved = 0;
  for (std::size_t run_index = 0; run_index < kGraphs; ++run_index) {
    const std::string where = numbered('#', run_index);
    Graph g = random_graph(rng);
    const auto rv = repetition_vector(g);
    ASSERT_TRUE(rv) << "generator built an inconsistent graph";

    // Size a random non-empty subset of the edges.
    std::vector<EdgeId> edges;
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      if (rng.bernoulli(0.7)) {
        edges.push_back(EdgeId{static_cast<EdgeId::value_type>(e)});
      }
    }
    if (edges.empty()) edges.push_back(EdgeId{0});

    BufferSizingConfig cfg;
    cfg.reference = ActorId{static_cast<ActorId::value_type>(
        rng.pick_index(g.actor_count()))};
    cfg.simulation = random_config(rng);
    if (rng.bernoulli(0.5)) {
      cfg.probe = LatencyProbe{
          ActorId{static_cast<ActorId::value_type>(
              rng.pick_index(g.actor_count()))},
          cfg.reference};
    }
    // Targets around the period the sized edges reach unbounded, so that
    // lower-bound hits, searches and infeasible graphs all occur.
    Graph open = g;
    for (const EdgeId e : edges) open.set_capacity(e, std::nullopt);
    const SimulationResult free_run =
        simulate(open, *rv, cfg.reference, cfg.simulation);
    const std::uint64_t base =
        free_run.status == SimulationStatus::Completed && free_run.period_ps > 0
            ? free_run.period_ps
            : static_cast<std::uint64_t>(rng.uniform_int(1, 600));
    cfg.target_period_ps = std::max<std::uint64_t>(
        1, base * static_cast<std::uint64_t>(rng.uniform_int(80, 160)) / 100);
    if (rng.bernoulli(0.3)) {
      std::vector<std::uint32_t> hint(edges.size());
      for (std::uint32_t& h : hint) {
        h = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
      }
      cfg.warm_start = hint;
      ++warm;
    }

    const Outcome want = run(upper_first_size_buffers, g, edges, cfg);
    const Outcome got = run(size_buffers, g, edges, cfg);
    ASSERT_EQ(got.error, want.error) << where;
    if (!got.error.empty()) continue;
    const BufferSizingResult& w = want.result;
    const BufferSizingResult& r = got.result;
    std::vector<std::uint32_t> lower(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      lower[i] = capacity_lower_bound(g, edges[i]);
    }

    if (r.feasible && !w.feasible) {
      // The window artefact: the lower bound meets, the upper bound's
      // window misses. The answer is the lower bound, and its own
      // simulation confirms it.
      ++window_artefacts;
      EXPECT_EQ(r.capacities, lower) << where;
      EXPECT_EQ(w.message.rfind("target period unreachable even with "
                                "generous buffers",
                                0),
                0u)
          << where << ": " << w.message;
      Graph sized = g;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        sized.set_capacity(edges[i], r.capacities[i]);
      }
      const SimulationResult check =
          simulate(sized, *rv, cfg.reference, cfg.simulation, cfg.probe);
      EXPECT_EQ(check.status, SimulationStatus::Completed) << where;
      EXPECT_LE(check.period_ps, cfg.target_period_ps) << where;
      EXPECT_EQ(check.period_ps, r.achieved_period_ps) << where;
      EXPECT_EQ(check.latency_ps, r.latency_ps) << where;
    } else {
      EXPECT_EQ(r.feasible, w.feasible) << where;
      EXPECT_EQ(r.capacities, w.capacities) << where;
      EXPECT_EQ(r.achieved_period_ps, w.achieved_period_ps) << where;
      EXPECT_EQ(r.latency_ps, w.latency_ps) << where;
      EXPECT_EQ(r.message, w.message) << where;
      EXPECT_EQ(r.warm_started, w.warm_started) << where;
      EXPECT_EQ(got.applied, want.applied) << where;
      // Same simulations in another order; an upper-infeasible graph pays
      // the lower bound's run on top.
      EXPECT_LE(r.simulations, w.simulations + 1) << where;
    }
    if (::testing::Test::HasFailure()) return;

    if (!r.feasible) {
      ++infeasible;
    } else if (r.capacities == lower) {
      ++at_lower;
      if (!cfg.warm_start) {
        EXPECT_EQ(r.simulations, 1u) << where;
      }
    } else {
      ++above_lower;
    }
    saved += r.simulations < w.simulations ? 1 : 0;
  }
  // Every regime shows up in numbers, and the artefact stays rare.
  EXPECT_GT(at_lower, kGraphs / 10);
  EXPECT_GT(above_lower, kGraphs / 20);
  EXPECT_GT(infeasible, kGraphs / 20);
  EXPECT_GT(warm, kGraphs / 5);
  EXPECT_GT(saved, kGraphs / 10);
  EXPECT_LT(window_artefacts, kGraphs / 1000);
  std::printf("graphs %zu: at lower bound %zu, above %zu, infeasible %zu, "
              "window artefacts %zu, fewer simulations %zu\n",
              kGraphs, at_lower, above_lower, infeasible, window_artefacts,
              saved);
}

}  // namespace
}  // namespace rtsm::csdf
