#include "core/csdf_expansion.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace rtsm::core {

ExpandedGraph expand_mapping(const kpn::Application& app,
                             const arch::Platform& platform,
                             const Mapping& mapping) {
  require(mapping.all_assigned() && mapping.all_routed(),
          "CSDF expansion requires a placed and routed mapping");

  ExpandedGraph out;
  out.process_actor.resize(app.process_count());
  out.hop_actors.resize(app.channel_count());
  out.consumer_edge.resize(app.channel_count());

  // Process actors: WCET phases converted to wall time at the tile's clock.
  for (const ProcessId pid : app.process_ids()) {
    const kpn::Implementation& im =
        app.implementation(pid, mapping.impl_of(pid));
    const TileId tile = mapping.tile_of(pid);
    std::vector<std::uint64_t> wcet_ps;
    wcet_ps.reserve(im.wcet_cc.size());
    for (const std::uint32_t cc : im.wcet_cc) {
      wcet_ps.push_back(platform.cycles_to_ps(tile, cc));
    }
    out.process_actor[pid.value()] =
        out.graph.add_actor(app.process(pid).name, std::move(wcet_ps));
  }

  const std::uint64_t hop_wcet_ps = platform.noc().router_latency_ps();
  const std::uint32_t hop_buffer = platform.noc().hop_buffer_tokens;

  auto output_rates = [&](ProcessId pid,
                          ChannelId cid) -> const kpn::PhaseRates& {
    const kpn::Implementation& im =
        app.implementation(pid, mapping.impl_of(pid));
    for (const kpn::PortSpec& port : im.outputs) {
      if (port.channel == cid) return port.rates;
    }
    throw Error("implementation '" + im.name + "' lacks output port for '" +
                app.channel(cid).name + "'");
  };
  auto input_rates = [&](ProcessId pid,
                         ChannelId cid) -> const kpn::PhaseRates& {
    const kpn::Implementation& im =
        app.implementation(pid, mapping.impl_of(pid));
    for (const kpn::PortSpec& port : im.inputs) {
      if (port.channel == cid) return port.rates;
    }
    throw Error("implementation '" + im.name + "' lacks input port for '" +
                app.channel(cid).name + "'");
  };

  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    const noc::Path& path = *mapping.path(cid);
    const ActorId src_actor = out.process_actor[c.src.value()];
    const ActorId dst_actor = out.process_actor[c.dst.value()];
    const kpn::PhaseRates& prod = output_rates(c.src, cid);
    const kpn::PhaseRates& cons = input_rates(c.dst, cid);

    const std::vector<RouterId> routers = path.routers(platform);
    if (routers.empty()) {
      // Intra-tile channel: one direct FIFO, sized by step 4.
      csdf::Edge e;
      e.name = c.name;
      e.src = src_actor;
      e.dst = dst_actor;
      e.production = prod;
      e.consumption = cons;
      out.consumer_edge[cid.value()] = out.graph.add_edge(std::move(e));
      continue;
    }

    // Forwarding actors: consume 1, produce 1, 4 NoC cycles per token (the
    // paper's R actors in Figure 3). A path of one or two routers keeps one
    // actor per router. A longer path keeps its first and last router's
    // actors, and one latency edge between them stands for the routers in
    // the middle (exact; see ExpandedGraph).
    std::vector<ActorId>& hops = out.hop_actors[cid.value()];
    auto add_router = [&](RouterId router) {
      std::string name = "R";
      name += std::to_string(router.value());
      name += '[';
      name += c.name;
      name += ']';
      hops.push_back(out.graph.add_actor(std::move(name), {hop_wcet_ps}));
    };
    add_router(routers.front());
    if (routers.size() >= 2) add_router(routers.back());

    auto connect = [&](ActorId from, ActorId to, std::vector<std::uint32_t> p,
                       std::vector<std::uint32_t> q,
                       std::optional<std::uint32_t> capacity,
                       std::string name, std::uint64_t latency_ps = 0) {
      csdf::Edge e;
      e.name = std::move(name);
      e.src = from;
      e.dst = to;
      e.production = std::move(p);
      e.consumption = std::move(q);
      e.capacity = capacity;
      e.latency_ps = latency_ps;
      return out.graph.add_edge(std::move(e));
    };

    // The producer-side NI buffer must at least hold one phase's burst.
    std::uint32_t burst = 0;
    for (const std::uint32_t r : prod) burst = std::max(burst, r);
    connect(src_actor, hops.front(), prod, {1}, std::max(hop_buffer, burst),
            c.name + "/inject");
    if (routers.size() >= 2) {
      // The H-1 hop buffers between the end routers, and the H-2 router
      // firings a token spends between them.
      const auto middle = static_cast<std::uint32_t>(routers.size() - 2);
      connect(hops[0], hops[1], {1}, {1}, (middle + 1) * hop_buffer,
              c.name + (middle == 0 ? "/hop0" : "/hops"),
              middle * hop_wcet_ps);
    }
    out.consumer_edge[cid.value()] = connect(
        hops.back(), dst_actor, {1}, cons, std::nullopt, c.name + "/eject");
  }
  return out;
}

}  // namespace rtsm::core
