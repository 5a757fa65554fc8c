// Reproduces Figure 2 of the paper: the 3x3-mesh MPSoC with two ARM tiles,
// two MONTIUM tiles, the A/D source, the Sink, and three tiles of types
// irrelevant to the case study. Coordinates are the reconstruction that
// makes Table 2's cost column reproduce exactly (DESIGN.md assumption 1).

// Figures are also written as BENCH_fig2_platform.json into the working
// directory (override with --json PATH).

#include <cstdio>
#include <cstring>
#include <string>

#include "io/dot.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"

int main(int argc, char** argv) {
  using namespace rtsm;

  std::string json_path = "BENCH_fig2_platform.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== Figure 2: MPSoC layout ================================\n\n");
  const arch::Platform platform = workload::make_paper_platform();

  std::printf("%s\n", io::platform_ascii(platform).c_str());

  io::TablePrinter tiles({"Tile", "Type", "Router (x,y)", "Clock [MHz]",
                          "Memory [KiB]", "Slots"});
  tiles.align_right(3);
  tiles.align_right(4);
  tiles.align_right(5);
  for (const TileId tid : platform.tile_ids()) {
    const arch::Tile& t = platform.tile(tid);
    std::string position = "(";
    position += std::to_string(t.x);
    position += ',';
    position += std::to_string(t.y);
    position += ')';
    tiles.add_row({t.name, platform.tile_type(t.type).name, position,
                   std::to_string(platform.tile_clock_hz(tid) / 1'000'000),
                   std::to_string(t.memory_bytes / 1024),
                   std::to_string(t.process_slots)});
  }
  std::printf("%s\n", tiles.to_string().c_str());

  const arch::NocParams& noc = platform.noc();
  std::printf("NoC: %zu routers, %zu directed links, "
              "%.0f Mtokens/s per link, %u cc router latency (%llu ns), "
              "%u-token hop buffers\n\n",
              platform.router_count(), platform.link_count(),
              noc.link_capacity_tokens_per_s / 1e6, noc.router_latency_cc,
              static_cast<unsigned long long>(noc.router_latency_ps() / 1000),
              noc.hop_buffer_tokens);

  // Distances that drive Table 2's cost column.
  io::TablePrinter dist({"From", "To", "Manhattan hops"});
  dist.align_right(2);
  const char* interesting[][2] = {
      {"A/D", "ARM1"},    {"A/D", "ARM2"},      {"ARM1", "ARM2"},
      {"ARM1", "MONTIUM2"}, {"ARM2", "MONTIUM2"}, {"MONTIUM1", "MONTIUM2"},
      {"MONTIUM1", "Sink"}, {"MONTIUM2", "Sink"}};
  for (const auto& pair : interesting) {
    dist.add_row({pair[0], pair[1],
                  std::to_string(platform.manhattan(
                      platform.tile_by_name(pair[0]),
                      platform.tile_by_name(pair[1])))});
  }
  std::printf("%s\n", dist.to_string().c_str());

  std::printf("Graphviz:\n%s\n", io::platform_to_dot(platform).c_str());

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"bench\": \"fig2_platform\", \"tiles\": [");
  bool first = true;
  for (const TileId tid : platform.tile_ids()) {
    const arch::Tile& t = platform.tile(tid);
    std::fprintf(
        f,
        "%s{\"name\": \"%s\", \"type\": \"%s\", \"x\": %u, \"y\": %u, "
        "\"clock_mhz\": %llu, \"memory_kib\": %llu, \"slots\": %u}",
        first ? "" : ", ", io::json_escape(t.name).c_str(),
        io::json_escape(platform.tile_type(t.type).name).c_str(), t.x, t.y,
        static_cast<unsigned long long>(platform.tile_clock_hz(tid) /
                                        1'000'000),
        static_cast<unsigned long long>(t.memory_bytes / 1024),
        t.process_slots);
    first = false;
  }
  std::fprintf(f,
               "], \"noc\": {\"routers\": %zu, \"links\": %zu, "
               "\"link_mtokens_per_s\": %.1f, \"router_latency_cc\": %u, "
               "\"hop_buffer_tokens\": %u}}\n",
               platform.router_count(), platform.link_count(),
               noc.link_capacity_tokens_per_s / 1e6, noc.router_latency_cc,
               noc.hop_buffer_tokens);
  std::fclose(f);
  std::printf("Wrote %s\n", json_path.c_str());
  return 0;
}
