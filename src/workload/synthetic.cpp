#include "workload/synthetic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rtsm::workload {

namespace {

/// Three-phase read/compute/write implementation moving whole symbols:
/// always rate-consistent (one CSDF cycle per symbol).
kpn::Implementation make_impl(const kpn::Application& app, ProcessId pid,
                              const std::string& process_name,
                              const std::string& type,
                              std::uint32_t compute_cc, double energy_nj,
                              std::uint64_t memory) {
  kpn::Implementation im;
  im.name = process_name + "@" + type;
  im.tile_type = type;
  im.wcet_cc = {1, compute_cc, 1};
  for (const ChannelId cid : app.in_channels(pid)) {
    im.inputs.push_back(
        {cid, {app.channel(cid).tokens_per_symbol, 0, 0}});
  }
  for (const ChannelId cid : app.out_channels(pid)) {
    im.outputs.push_back(
        {cid, {0, 0, app.channel(cid).tokens_per_symbol}});
  }
  im.energy_nj_per_symbol = energy_nj;
  im.memory_bytes = memory;
  return im;
}

}  // namespace

kpn::Application make_synthetic_app(Rng& rng, const SyntheticAppParams& params,
                                    const std::string& name) {
  require(params.process_count >= 1, "synthetic app needs >= 1 process");
  require(!params.tile_types.empty(), "synthetic app needs >= 1 tile type");
  require(params.min_tokens >= 1 && params.min_tokens <= params.max_tokens,
          "synthetic app: bad token range");

  kpn::QosConstraints qos;
  qos.symbol_period_ns = params.period_ns;

  kpn::Application app(name, qos);

  const std::uint32_t n = params.process_count;
  std::vector<ProcessId> procs;
  procs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string process = "P";
    process += std::to_string(i);
    procs.push_back(app.add_process(process));
  }

  auto tokens = [&] {
    return static_cast<std::uint32_t>(
        rng.uniform_int(params.min_tokens, params.max_tokens));
  };

  // Spine: pipeline through all processes.
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    app.connect(procs[i], procs[i + 1], tokens());
  }
  // Skip edges for fork-join shapes (always forward: the graph stays a DAG).
  if (params.topology == Topology::ForkJoin) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 2; j < n; ++j) {
        if (rng.bernoulli(params.extra_edge_prob)) {
          app.connect(procs[i], procs[j], tokens());
        }
      }
    }
  }

  std::optional<ProcessId> src;
  std::optional<ProcessId> dst;
  std::optional<ChannelId> src_channel;
  std::optional<ChannelId> dst_channel;
  if (params.with_fixtures) {
    src = app.add_fixture("SRC", "SRC");
    dst = app.add_fixture("DST", "DST");
    src_channel = app.connect(*src, procs.front(), tokens());
    dst_channel = app.connect(procs.back(), *dst, tokens());
  }

  const double period_cc = static_cast<double>(params.period_ns) * 1e-9 *
                           static_cast<double>(params.nominal_clock_hz);

  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId pid = procs[i];
    const std::string pname = app.process(pid).name;

    // Preferred type plus a random subset of alternates.
    std::vector<std::string> types = params.tile_types;
    rng.shuffle(types);
    const std::uint32_t count =
        static_cast<std::uint32_t>(std::clamp<std::int64_t>(
            rng.uniform_int(params.impls_min, params.impls_max), 1,
            static_cast<std::int64_t>(types.size())));

    const double pref_util =
        rng.uniform(0.05, params.max_preferred_utilization);
    const std::uint32_t pref_cc = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(pref_util * period_cc));
    const double pref_energy =
        rng.uniform(params.energy_min, params.energy_max);
    const std::uint64_t memory = static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(params.memory_min),
                        static_cast<std::int64_t>(params.memory_max)));

    for (std::uint32_t k = 0; k < count; ++k) {
      const bool preferred = k == 0;
      const double slowdown =
          preferred
              ? 1.0
              : rng.uniform(params.alt_slowdown_min, params.alt_slowdown_max);
      const double energy_factor =
          preferred ? 1.0
                    : rng.uniform(params.alt_energy_min, params.alt_energy_max);
      app.add_implementation(
          pid, make_impl(app, pid, pname, types[k],
                         static_cast<std::uint32_t>(pref_cc * slowdown),
                         pref_energy * energy_factor, memory));
    }
  }

  if (params.with_fixtures) {
    const std::uint32_t io_cc = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(period_cc * 0.4));
    {
      kpn::Implementation im;
      im.name = "SRC@IO";
      im.tile_type = "IO";
      im.wcet_cc = {io_cc};
      im.outputs = {
          {*src_channel, {app.channel(*src_channel).tokens_per_symbol}}};
      im.memory_bytes = 256;
      app.add_implementation(*src, std::move(im));
    }
    {
      kpn::Implementation im;
      im.name = "DST@IO";
      im.tile_type = "IO";
      im.wcet_cc = {io_cc};
      im.inputs = {
          {*dst_channel, {app.channel(*dst_channel).tokens_per_symbol}}};
      im.memory_bytes = 256;
      app.add_implementation(*dst, std::move(im));
    }
  }

  app.validate();
  return app;
}

arch::Platform make_synthetic_platform(Rng& rng,
                                       const SyntheticPlatformParams& params,
                                       const std::string& name) {
  std::uint32_t total = params.with_io ? 2 : 0;
  for (const auto& [type, count] : params.type_counts) total += count;
  require(total <= params.width * params.height,
          "synthetic platform: more tiles than mesh cells");

  arch::NocParams noc;
  noc.noc_clock_hz = params.clock_hz;
  noc.link_capacity_tokens_per_s = params.link_capacity_tokens_per_s;

  arch::Platform platform(name, params.width, params.height, noc);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  for (std::uint32_t y = 0; y < params.height; ++y) {
    for (std::uint32_t x = 0; x < params.width; ++x) cells.push_back({x, y});
  }
  if (params.random_placement) rng.shuffle(cells);

  std::size_t next_cell = 0;
  auto place = [&](const std::string& tile_name, TileTypeId type) {
    const auto [x, y] = cells[next_cell++];
    platform.add_tile(tile_name, type, x, y, params.tile_memory_bytes,
                      params.process_slots);
  };

  for (const auto& [type_name, count] : params.type_counts) {
    const TileTypeId type = platform.add_tile_type(type_name, params.clock_hz);
    for (std::uint32_t i = 0; i < count; ++i) {
      place(type_name + std::to_string(i), type);
    }
  }
  if (params.with_io) {
    const TileTypeId io = platform.add_tile_type("IO", params.clock_hz);
    place("SRC", io);
    place("DST", io);
  }
  return platform;
}

}  // namespace rtsm::workload
