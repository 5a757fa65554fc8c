#pragma once

// Shared fixtures for the core mapping tests: a small heterogeneous
// platform and a configurable pipeline application.

#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "kpn/application.hpp"

namespace rtsm::test {

/// 3x2 mesh: two "BIG" tiles (fast), two "LITTLE" tiles (slow), one "IO"
/// source tile and one "IO" sink tile. Compute tiles are single-slot;
/// io_slots configures how many fixtures may share the IO tiles.
inline arch::Platform small_platform(std::uint64_t big_clock = 200'000'000,
                                     std::uint64_t little_clock = 200'000'000,
                                     std::uint64_t memory = 64 * 1024,
                                     std::uint32_t io_slots = 1) {
  arch::Platform p("test 3x2", 3, 2);
  const TileTypeId big = p.add_tile_type("BIG", big_clock);
  const TileTypeId little = p.add_tile_type("LITTLE", little_clock);
  const TileTypeId io = p.add_tile_type("IO", big_clock);
  p.add_tile("BIG0", big, 1, 0, memory);
  p.add_tile("BIG1", big, 2, 0, memory);
  p.add_tile("LITTLE0", little, 1, 1, memory);
  p.add_tile("LITTLE1", little, 2, 1, memory);
  p.add_tile("SRC", io, 0, 0, memory, io_slots);
  p.add_tile("DST", io, 0, 1, memory, io_slots);
  return p;
}

/// Options for the test pipeline generator below.
struct PipelineSpec {
  std::uint32_t stages = 2;
  std::uint32_t tokens = 16;
  std::uint64_t period_ns = 4000;
  /// WCET of each stage's BIG implementation (single phase), cycles.
  std::uint32_t big_wcet_cc = 200;
  /// WCET of each stage's LITTLE implementation; 0 = no LITTLE variant.
  std::uint32_t little_wcet_cc = 400;
  double big_energy_nj = 100.0;
  double little_energy_nj = 50.0;
  std::uint64_t impl_memory = 4 * 1024;
  bool with_fixtures = true;
};

/// SRC -> S0 -> ... -> Sn-1 -> DST pipeline where every stage has a BIG
/// implementation and (optionally) a cheaper but slower LITTLE one.
inline kpn::Application pipeline_app(const PipelineSpec& spec) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = spec.period_ns;
  kpn::Application app("test pipeline", qos);

  std::vector<ProcessId> stages;
  for (std::uint32_t i = 0; i < spec.stages; ++i) {
    std::string name = "S";
    name += std::to_string(i);
    stages.push_back(app.add_process(name));
  }
  std::optional<ProcessId> src;
  std::optional<ProcessId> dst;
  if (spec.with_fixtures) {
    src = app.add_fixture("SRC", "SRC");
    dst = app.add_fixture("DST", "DST");
  }

  std::vector<ChannelId> chain;
  if (src) chain.push_back(app.connect(*src, stages.front(), spec.tokens));
  for (std::uint32_t i = 0; i + 1 < spec.stages; ++i) {
    chain.push_back(app.connect(stages[i], stages[i + 1], spec.tokens));
  }
  if (dst) chain.push_back(app.connect(stages.back(), *dst, spec.tokens));

  auto add_stage_impl = [&](ProcessId pid, const std::string& type,
                            std::uint32_t wcet, double energy) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@" + type;
    im.tile_type = type;
    im.wcet_cc = {wcet};
    for (const ChannelId cid : app.in_channels(pid)) {
      im.inputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
    }
    for (const ChannelId cid : app.out_channels(pid)) {
      im.outputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
    }
    im.energy_nj_per_symbol = energy;
    im.memory_bytes = spec.impl_memory;
    app.add_implementation(pid, std::move(im));
  };

  for (const ProcessId pid : stages) {
    add_stage_impl(pid, "BIG", spec.big_wcet_cc, spec.big_energy_nj);
    if (spec.little_wcet_cc > 0) {
      add_stage_impl(pid, "LITTLE", spec.little_wcet_cc, spec.little_energy_nj);
    }
  }

  if (spec.with_fixtures) {
    kpn::Implementation s;
    s.name = "SRC@IO";
    s.tile_type = "IO";
    s.wcet_cc = {100};
    s.outputs = {{chain.front(), {spec.tokens}}};
    s.memory_bytes = 128;
    app.add_implementation(*src, std::move(s));

    kpn::Implementation d;
    d.name = "DST@IO";
    d.tile_type = "IO";
    d.wcet_cc = {100};
    d.inputs = {{chain.back(), {spec.tokens}}};
    d.memory_bytes = 128;
    app.add_implementation(*dst, std::move(d));
  }

  app.validate();
  return app;
}

}  // namespace rtsm::test
