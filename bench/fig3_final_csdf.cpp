// Reproduces Figure 3 of the paper: the CSDF graph of the fully mapped
// HIPERLAN/2 receiver — process actors, 4-cycle router actors along each
// path (collapsed exactly to the two end routers on paths of 3+ routers),
// 4-token buffers between hops, and the consumer-side
// buffer capacities B1..B4 computed by the step-4 dataflow analysis (the
// paper computes them with Wiggers et al. [11] but does not print values;
// ours are recorded in EXPERIMENTS.md).

// Figures are also written as BENCH_fig3_final_csdf.json into the working
// directory (override with --json PATH).

#include <cstdio>
#include <cstring>
#include <string>

#include "core/csdf_expansion.hpp"
#include "core/spatial_mapper.hpp"
#include "io/dot.hpp"
#include "io/json.hpp"
#include "io/paper_report.hpp"
#include "io/table.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"

int main(int argc, char** argv) {
  using namespace rtsm;

  std::string json_path = "BENCH_fig3_final_csdf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== Figure 3: final CSDF graph of the mapped receiver =====\n\n");

  const kpn::Application app = workload::make_hiperlan2_receiver();
  const arch::Platform platform = workload::make_paper_platform();
  const core::SpatialMapper mapper(workload::paper_mapper_config());
  const core::MappingResult result = mapper.map(app, platform);
  if (!result.success) {
    std::printf("FAILED to map: %s\n", result.failure.c_str());
    return 1;
  }

  std::printf("Step 3 routing (channels by non-increasing throughput):\n%s\n",
              io::render_step3(result.trace.rounds.back().step3).c_str());

  const core::ExpandedGraph expanded =
      core::expand_mapping(app, platform, result.mapping);
  std::printf("Expanded CSDF: %zu actors (%zu processes + %zu router actors; "
              "a path of 3+ routers keeps its two end routers), "
              "%zu edges\n\n",
              expanded.graph.actor_count(), app.process_count(),
              expanded.graph.actor_count() - app.process_count(),
              expanded.graph.edge_count());

  io::TablePrinter buffers({"Channel", "Routers on path", "Hop buffers",
                            "B_i [tokens]", "B_i [bytes]"});
  buffers.align_right(1);
  buffers.align_right(3);
  buffers.align_right(4);
  std::size_t i = 0;
  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    const std::uint32_t b = *result.mapping.buffer_tokens(cid);
    buffers.add_row(
        {"B" + std::to_string(++i) + ": " + c.name,
         std::to_string(result.mapping.path(cid)->routers(platform).size()),
         std::to_string(platform.noc().hop_buffer_tokens) + " tokens/hop",
         std::to_string(b), std::to_string(b * c.token_bytes)});
  }
  std::printf("%s\n", buffers.to_string().c_str());

  std::printf("Verified QoS: sustained period %.3f us (target 4.000 us), "
              "source->sink latency %.3f us\n",
              result.achieved_period_ps / 1e6, result.latency_ps / 1e6);
  std::printf("Energy: %.1f nJ/symbol processing + %.1f nJ/symbol "
              "communication = %.1f nJ/symbol\n\n",
              core::processing_energy_nj_per_symbol(app, result.mapping),
              result.energy_nj_per_symbol -
                  core::processing_energy_nj_per_symbol(app, result.mapping),
              result.energy_nj_per_symbol);

  // Buffer capacities across all seven demapping modes (b sweep).
  std::printf("B_i across demapping modes:\n");
  io::TablePrinter sweep({"Mode", "b", "B1", "B2", "B3", "B4", "B(sink)",
                          "Period [us]"});
  for (std::size_t c = 1; c <= 7; ++c) sweep.align_right(c);
  std::string sweep_json;
  for (const workload::ModeInfo& mode : workload::kHiperlan2Modes) {
    workload::Hiperlan2Config config;
    config.mode = mode.mode;
    const auto mapp = workload::make_hiperlan2_receiver(config);
    const auto mplat = workload::make_paper_platform(config);
    const auto mres = mapper.map(mapp, mplat);
    if (!sweep_json.empty()) sweep_json += ", ";
    sweep_json += "{\"mode\": \"" + std::string(mode.name) +
                  "\", \"b\": " + std::to_string(mode.output_tokens) +
                  ", \"feasible\": " + (mres.success ? "true" : "false");
    if (!mres.success) {
      sweep.add_row({std::string(mode.name), std::to_string(mode.output_tokens),
                     "-", "-", "-", "-", "-", "infeasible"});
      sweep_json += "}";
      continue;
    }
    std::vector<std::string> row{std::string(mode.name),
                                 std::to_string(mode.output_tokens)};
    sweep_json += ", \"buffers\": [";
    bool first = true;
    for (const ChannelId cid : mapp.channel_ids()) {
      row.push_back(std::to_string(*mres.mapping.buffer_tokens(cid)));
      sweep_json += (first ? "" : ", ") +
                    std::to_string(*mres.mapping.buffer_tokens(cid));
      first = false;
    }
    row.push_back(format_double(mres.achieved_period_ps / 1e6, 3));
    sweep_json += "], \"period_us\": " +
                  format_double(mres.achieved_period_ps / 1e6, 6) + "}";
    sweep.add_row(row);
  }
  std::printf("%s\n", sweep.to_string().c_str());

  std::printf("Graphviz of the expanded graph:\n%s\n",
              io::csdf_to_dot(expanded.graph).c_str());

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\": \"fig3_final_csdf\", \"actors\": %zu, "
               "\"edges\": %zu, \"period_us\": %.6f, \"latency_us\": %.6f, "
               "\"energy_nj_per_symbol\": %.6f, \"modes\": [%s]}\n",
               expanded.graph.actor_count(), expanded.graph.edge_count(),
               result.achieved_period_ps / 1e6, result.latency_ps / 1e6,
               result.energy_nj_per_symbol, sweep_json.c_str());
  std::fclose(f);
  std::printf("Wrote %s\n", json_path.c_str());
  return 0;
}
