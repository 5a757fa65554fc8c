#include "verify/signature.hpp"

#include "util/error.hpp"
#include "util/words.hpp"

namespace rtsm::verify {

std::uint64_t app_skeleton_hash(const kpn::Application& app) {
  return hash_words(serialize_words([&app](auto& w) {
    w.put_string(app.name());
    w.put(app.process_count());
    w.put(app.channel_count());
    w.put(app.qos().symbol_period_ns);
    for (const ChannelId cid : app.channel_ids()) {
      const kpn::Channel& c = app.channel(cid);
      w.put(c.src.value());
      w.put(c.dst.value());
      w.put(c.tokens_per_symbol);
    }
  }));
}

MappingSignature MappingSignature::of(const kpn::Application& app,
                                      const arch::Platform& platform,
                                      const core::Mapping& mapping,
                                      const SizingKey& key) {
  require(mapping.all_assigned() && mapping.all_routed(),
          "signature requires a placed and routed mapping");

  MappingSignature sig;
  sig.words_ = serialize_words([&](auto& w) {
    // Sizing parameters.
    w.put(key.target_period_ps);
    w.put(key.capacity_limit);
    w.put(key.simulation.warmup_iterations);
    w.put(key.simulation.measured_iterations);
    w.put(key.simulation.max_events);
    w.put(key.simulation.convergence_window);
    w.put_double(key.simulation.convergence_epsilon);

    // Platform NoC parameters consumed by the expansion.
    w.put(platform.noc().router_latency_ps());
    w.put(platform.noc().hop_buffer_tokens);

    // Per process: selected implementation content + tile clock. The tile
    // identity itself is deliberately absent — only its clock matters to
    // the expansion, so equal-clock moves that keep all routes hit the
    // cache.
    w.put(app.process_count());
    for (const ProcessId pid : app.process_ids()) {
      const ImplementationId impl = mapping.impl_of(pid);
      const kpn::Implementation& im = app.implementation(pid, impl);
      w.put_string(app.process(pid).name);
      w.put_string(im.name);
      w.put(impl.value());
      w.put(platform.tile_clock_hz(mapping.tile_of(pid)));
      w.put_run(im.wcet_cc);
      w.put(im.inputs.size());
      for (const kpn::PortSpec& port : im.inputs) {
        w.put(port.channel.value());
        w.put_run(port.rates);
      }
      w.put(im.outputs.size());
      for (const kpn::PortSpec& port : im.outputs) {
        w.put(port.channel.value());
        w.put_run(port.rates);
      }
    }

    // Per channel: endpoints, token geometry and the exact route (link ids
    // encode the traversed routers in order).
    w.put(app.channel_count());
    for (const ChannelId cid : app.channel_ids()) {
      const kpn::Channel& c = app.channel(cid);
      const noc::Path& path = *mapping.path(cid);
      w.put_string(c.name);
      w.put(c.src.value());
      w.put(c.dst.value());
      w.put(c.tokens_per_symbol);
      w.put(c.token_bytes);
      w.put(path.links.size());
      for (const LinkId link : path.links) w.put(link.value());
    }
  });
  sig.hash_ = static_cast<std::size_t>(hash_words(sig.words_));
  return sig;
}

}  // namespace rtsm::verify
