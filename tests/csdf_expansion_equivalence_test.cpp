// Equivalence test of step 4's compact CSDF expansion. core::expand_mapping
// collapses every router chain of three or more routers into its end
// routers and one latency edge. The reference here is the paper's Figure 3
// expansion as it stands, one R actor per router with a hop buffer between
// each pair. On seeded random mappings of chain and fork-join applications
// (hop buffers of 1-4 tokens, several router latencies and clocks), both
// graphs must give the same self-timed results under consumer capacities
// from the lower bound to unbounded, deadlocking ones included, and
// csdf::size_buffers must choose the same capacities on both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.hpp"
#include "core/csdf_expansion.hpp"
#include "core/mapping.hpp"
#include "csdf/analysis.hpp"
#include "csdf/buffer_sizing.hpp"
#include "csdf/simulator.hpp"
#include "kpn/application.hpp"
#include "noc/link_load.hpp"
#include "noc/route.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace rtsm {
namespace {

/// The Figure 3 expansion with one R actor per router on every path.
core::ExpandedGraph reference_expansion(const kpn::Application& app,
                                        const arch::Platform& platform,
                                        const core::Mapping& mapping) {
  core::ExpandedGraph out;
  out.process_actor.resize(app.process_count());
  out.hop_actors.resize(app.channel_count());
  out.consumer_edge.resize(app.channel_count());
  for (const ProcessId pid : app.process_ids()) {
    const kpn::Implementation& im =
        app.implementation(pid, mapping.impl_of(pid));
    std::vector<std::uint64_t> wcet_ps;
    for (const std::uint32_t cc : im.wcet_cc) {
      wcet_ps.push_back(platform.cycles_to_ps(mapping.tile_of(pid), cc));
    }
    out.process_actor[pid.value()] =
        out.graph.add_actor(app.process(pid).name, std::move(wcet_ps));
  }
  auto port_rates = [](const std::vector<kpn::PortSpec>& ports,
                       ChannelId cid) -> const kpn::PhaseRates& {
    for (const kpn::PortSpec& port : ports) {
      if (port.channel == cid) return port.rates;
    }
    throw Error("missing port");
  };
  const std::uint32_t b = platform.noc().hop_buffer_tokens;
  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    const kpn::PhaseRates& prod = port_rates(
        app.implementation(c.src, mapping.impl_of(c.src)).outputs, cid);
    const kpn::PhaseRates& cons = port_rates(
        app.implementation(c.dst, mapping.impl_of(c.dst)).inputs, cid);
    auto connect = [&](ActorId from, ActorId to, std::vector<std::uint32_t> p,
                       std::vector<std::uint32_t> q,
                       std::optional<std::uint32_t> capacity) {
      csdf::Edge e;
      e.name = c.name;
      e.src = from;
      e.dst = to;
      e.production = std::move(p);
      e.consumption = std::move(q);
      e.capacity = capacity;
      return out.graph.add_edge(std::move(e));
    };
    const ActorId src = out.process_actor[c.src.value()];
    const ActorId dst = out.process_actor[c.dst.value()];
    const std::vector<RouterId> routers = mapping.path(cid)->routers(platform);
    if (routers.empty()) {
      out.consumer_edge[cid.value()] = connect(src, dst, prod, cons, {});
      continue;
    }
    std::vector<ActorId>& hops = out.hop_actors[cid.value()];
    for (std::size_t h = 0; h < routers.size(); ++h) {
      hops.push_back(out.graph.add_actor(
          c.name, {platform.noc().router_latency_ps()}));
    }
    const std::uint32_t burst = *std::max_element(prod.begin(), prod.end());
    connect(src, hops.front(), prod, {1}, std::max(b, burst));
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      connect(hops[h], hops[h + 1], {1}, {1}, b);
    }
    out.consumer_edge[cid.value()] =
        connect(hops.back(), dst, {1}, cons, std::nullopt);
  }
  return out;
}

/// A W x H mesh with a tile at every router, each randomly ARM or MONTIUM,
/// under random hop buffer depth, router latency and clocks.
arch::Platform random_platform(Rng& rng) {
  arch::NocParams noc;
  noc.hop_buffer_tokens = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  const std::uint32_t latencies[] = {1, 2, 4, 7, 16};
  noc.router_latency_cc = latencies[rng.pick_index(5)];
  noc.noc_clock_hz = rng.bernoulli(0.5) ? 200'000'000 : 400'000'000;
  const auto w = static_cast<std::uint32_t>(rng.uniform_int(2, 7));
  const auto h = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
  arch::Platform p("equivalence mesh", w, h, noc);
  const std::uint64_t clocks[] = {100'000'000, 200'000'000, 400'000'000};
  const TileTypeId arm = p.add_tile_type("ARM", clocks[rng.pick_index(3)]);
  const TileTypeId montium =
      p.add_tile_type("MONTIUM", clocks[rng.pick_index(3)]);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      std::string name = "T";
      name += std::to_string(y * w + x);
      p.add_tile(name, rng.bernoulli(0.5) ? arm : montium, x, y, 1 << 20, 8);
    }
  }
  return p;
}

/// A chain or fork-join application whose implementations split every
/// port's tokens unevenly over 1-3 phases, so that small buffers can
/// deadlock across the branches of a fork-join.
kpn::Application multi_phase_app(Rng& rng, const std::string& name) {
  kpn::QosConstraints qos;
  const std::uint64_t periods[] = {2000, 4000, 8000};
  qos.symbol_period_ns = periods[rng.pick_index(3)];
  kpn::Application app(name, qos);
  const auto n = static_cast<std::uint32_t>(rng.uniform_int(2, 7));
  std::vector<ProcessId> procs;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string process = "P";
    process += std::to_string(i);
    procs.push_back(app.add_process(process));
  }
  auto tokens = [&] {
    return static_cast<std::uint32_t>(rng.uniform_int(1, 12));
  };
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    app.connect(procs[i], procs[i + 1], tokens());
  }
  const bool fork_join = rng.bernoulli(0.6);
  for (std::uint32_t i = 0; fork_join && i < n; ++i) {
    for (std::uint32_t j = i + 2; j < n; ++j) {
      if (rng.bernoulli(0.35)) app.connect(procs[i], procs[j], tokens());
    }
  }
  auto split = [&](std::uint32_t total, std::size_t phases) {
    std::vector<std::uint32_t> rates(phases, 0);
    for (std::uint32_t t = 0; t < total; ++t) ++rates[rng.pick_index(phases)];
    return rates;
  };
  for (const ProcessId pid : procs) {
    std::vector<std::string> types = {"ARM", "MONTIUM"};
    rng.shuffle(types);
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 2));
    for (std::size_t k = 0; k < count; ++k) {
      kpn::Implementation im;
      im.name = app.process(pid).name;
      im.name += '@';
      im.name += types[k];
      im.tile_type = types[k];
      im.wcet_cc.resize(static_cast<std::size_t>(rng.uniform_int(1, 3)));
      for (std::uint32_t& cc : im.wcet_cc) {
        cc = static_cast<std::uint32_t>(rng.uniform_int(1, 300));
      }
      for (const ChannelId cid : app.in_channels(pid)) {
        im.inputs.push_back({cid, split(app.channel(cid).tokens_per_symbol,
                                        im.wcet_cc.size())});
      }
      for (const ChannelId cid : app.out_channels(pid)) {
        im.outputs.push_back({cid, split(app.channel(cid).tokens_per_symbol,
                                         im.wcet_cc.size())});
      }
      app.add_implementation(pid, std::move(im));
    }
  }
  app.validate();
  return app;
}

/// Random implementations on random tiles of their type, XY-routed. Tile
/// choice ignores capacity: only the CSDF structure matters here.
std::optional<core::Mapping> random_mapping(Rng& rng,
                                            const kpn::Application& app,
                                            const arch::Platform& platform) {
  core::Mapping mapping(app.process_count(), app.channel_count());
  for (const ProcessId pid : app.process_ids()) {
    const auto& impls = app.process(pid).implementations;
    const std::size_t i = rng.pick_index(impls.size());
    const std::vector<TileId> tiles =
        platform.tiles_of_type(platform.type_by_name(impls[i].tile_type));
    if (tiles.empty()) return std::nullopt;
    // Now and then share the previous process's tile, for intra-tile
    // channels next to routed ones.
    TileId tile = tiles[rng.pick_index(tiles.size())];
    if (pid.value() > 0 && rng.bernoulli(0.3)) {
      const TileId previous = mapping.tile_of(ProcessId{pid.value() - 1});
      if (std::find(tiles.begin(), tiles.end(), previous) != tiles.end()) {
        tile = previous;
      }
    }
    mapping.assign(pid, ImplementationId{static_cast<std::uint32_t>(i)},
                   tile);
  }
  const noc::LinkLoad load(platform);
  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    auto path = noc::route_xy(load, mapping.tile_of(c.src),
                              mapping.tile_of(c.dst), 0.0);
    if (!path) return std::nullopt;
    mapping.set_path(cid, std::move(*path));
  }
  return mapping;
}

struct Endpoints {
  ProcessId source;
  ProcessId sink;
};

Endpoints endpoints(const kpn::Application& app) {
  Endpoints ep;
  for (const ProcessId pid : app.process_ids()) {
    if (!ep.source.valid() && app.in_channels(pid).empty()) ep.source = pid;
    if (!ep.sink.valid() && app.out_channels(pid).empty()) ep.sink = pid;
  }
  return ep;
}

TEST(ExpansionEquivalence, CompactExpansionMatchesOneActorPerRouter) {
  Rng rng(0xc011a95e);
  std::size_t mappings = 0;
  std::size_t collapsed_paths = 0;
  std::size_t deadlocks = 0;
  std::size_t limits = 0;
  std::size_t completed = 0;
  std::size_t unbounded = 0;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::uint64_t reference_events = 0;
  std::uint64_t compact_events = 0;
  while (mappings < 4000) {
    const arch::Platform platform = random_platform(rng);
    std::string name = "eq";
    name += std::to_string(mappings);
    std::optional<kpn::Application> generated;
    if (rng.bernoulli(0.5)) {
      // The admission path's read/compute/write implementations.
      workload::SyntheticAppParams params;
      params.process_count = static_cast<std::uint32_t>(rng.uniform_int(2, 7));
      params.topology = rng.bernoulli(0.5) ? workload::Topology::Chain
                                           : workload::Topology::ForkJoin;
      params.extra_edge_prob = 0.3;
      params.with_fixtures = false;
      params.tile_types = {"ARM", "MONTIUM"};
      params.min_tokens = 1;
      params.max_tokens = 24;
      generated.emplace(workload::make_synthetic_app(rng, params, name));
    } else {
      generated.emplace(multi_phase_app(rng, name));
    }
    const kpn::Application& app = *generated;
    const std::optional<core::Mapping> mapping =
        random_mapping(rng, app, platform);
    if (!mapping) continue;
    const std::string where = "mapping #" + std::to_string(mappings);

    core::ExpandedGraph want = reference_expansion(app, platform, *mapping);
    core::ExpandedGraph got = core::expand_mapping(app, platform, *mapping);
    for (const ChannelId cid : app.channel_ids()) {
      if (mapping->path(cid)->routers(platform).size() >= 3) {
        ++collapsed_paths;
      }
    }
    const auto rv_want = csdf::repetition_vector(want.graph);
    const auto rv_got = csdf::repetition_vector(got.graph);
    ASSERT_TRUE(rv_want && rv_got) << where;
    const Endpoints ep = endpoints(app);
    auto actors = [&](const core::ExpandedGraph& g) {
      return std::pair{g.process_actor[ep.source.value()],
                       g.process_actor[ep.sink.value()]};
    };

    // One self-timed run under random consumer capacities.
    for (const ChannelId cid : app.channel_ids()) {
      const EdgeId e = want.consumer_edge[cid.value()];
      std::optional<std::uint32_t> cap;
      const double pick = rng.uniform01();
      const std::uint32_t lower = csdf::capacity_lower_bound(want.graph, e);
      if (pick < 0.2) {
        ++unbounded;
      } else if (pick < 0.65) {
        cap = lower;
      } else {
        cap = lower + static_cast<std::uint32_t>(rng.uniform_int(1, 2 * lower));
      }
      want.graph.set_capacity(e, cap);
      got.graph.set_capacity(got.consumer_edge[cid.value()], cap);
    }
    // A stalled branch behind an unbounded edge runs into the event limit;
    // keep that cheap.
    csdf::SimulationConfig cfg;
    cfg.max_events = 500'000;
    if (rng.bernoulli(0.3)) {
      cfg.warmup_iterations = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
      cfg.measured_iterations =
          static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    }
    const auto [w_src, w_sink] = actors(want);
    const auto [g_src, g_sink] = actors(got);
    const csdf::SimulationResult sim_want = csdf::simulate(
        want.graph, *rv_want, w_sink, cfg, csdf::LatencyProbe{w_src, w_sink});
    const csdf::SimulationResult sim_got = csdf::simulate(
        got.graph, *rv_got, g_sink, cfg, csdf::LatencyProbe{g_src, g_sink});
    EXPECT_EQ(sim_got.status, sim_want.status) << where;
    EXPECT_EQ(sim_got.period_ps, sim_want.period_ps) << where;
    EXPECT_EQ(sim_got.max_period_ps, sim_want.max_period_ps) << where;
    EXPECT_EQ(sim_got.latency_ps, sim_want.latency_ps) << where;
    EXPECT_EQ(sim_got.measured_iterations_used,
              sim_want.measured_iterations_used)
        << where;
    EXPECT_LE(sim_got.events, sim_want.events) << where;
    deadlocks += sim_want.status == csdf::SimulationStatus::Deadlock ? 1 : 0;
    limits += sim_want.status == csdf::SimulationStatus::EventLimit ? 1 : 0;
    completed += sim_want.status == csdf::SimulationStatus::Completed ? 1 : 0;
    reference_events += sim_want.events;
    compact_events += sim_got.events;

    // Step 4's sizing: the application's own period, or a tighter one.
    csdf::BufferSizingConfig sizing;
    sizing.target_period_ps = app.qos().symbol_period_ns * 1000ull;
    if (rng.bernoulli(0.3)) sizing.target_period_ps /= 2;
    for (const ChannelId cid : app.channel_ids()) {
      want.graph.set_capacity(want.consumer_edge[cid.value()], std::nullopt);
      got.graph.set_capacity(got.consumer_edge[cid.value()], std::nullopt);
    }
    sizing.reference = w_sink;
    sizing.probe = csdf::LatencyProbe{w_src, w_sink};
    const csdf::BufferSizingResult size_want =
        csdf::size_buffers(want.graph, want.consumer_edge, sizing);
    sizing.reference = g_sink;
    sizing.probe = csdf::LatencyProbe{g_src, g_sink};
    const csdf::BufferSizingResult size_got =
        csdf::size_buffers(got.graph, got.consumer_edge, sizing);
    EXPECT_EQ(size_got.feasible, size_want.feasible) << where;
    EXPECT_EQ(size_got.capacities, size_want.capacities) << where;
    EXPECT_EQ(size_got.achieved_period_ps, size_want.achieved_period_ps)
        << where;
    EXPECT_EQ(size_got.latency_ps, size_want.latency_ps) << where;
    (size_want.feasible ? feasible : infeasible) += 1;
    if (::testing::Test::HasFailure()) return;
    ++mappings;
  }
  // Every regime shows up in numbers, and the compact graph fires less.
  EXPECT_GT(collapsed_paths, 4000u);
  EXPECT_GT(deadlocks, 80u);
  EXPECT_GT(limits, 3u);
  EXPECT_GT(completed, 1000u);
  EXPECT_GT(unbounded, 2000u);
  EXPECT_GT(feasible, 1000u);
  EXPECT_GT(infeasible, 500u);
  EXPECT_LT(compact_events, reference_events);
  std::printf("%zu mappings, %zu collapsed paths, %zu deadlocks, %zu event "
              "limits, %zu/%zu feasible/infeasible sizings, firings %llu -> "
              "%llu\n",
              mappings, collapsed_paths, deadlocks, limits, feasible,
              infeasible,
              static_cast<unsigned long long>(reference_events),
              static_cast<unsigned long long>(compact_events));
}

}  // namespace
}  // namespace rtsm
