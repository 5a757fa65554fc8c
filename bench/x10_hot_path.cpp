// Extension bench X10: the admission hot path at scale.
//
// PR 8 made the per-admission cost O(changes) instead of O(platform):
// worker scratches are delta-refreshed from the live state's mutation
// journal, commits whose snapshot is still version-synced skip the
// mapping_fits re-validation, and step-3 routing memoizes idle-network
// routes in a shared cache. This bench quantifies all three on growing
// meshes (6x6 / 16x16 / 32x32) under one seeded churn workload:
//   - admit latency p50/p95 and the per-phase split
//     (snapshot / map / validate / commit) from AdmissionStats;
//   - a snapshot microbench: delta refresh vs. the full copy it replaces,
//     same load, same scratch — the headline speedup (the full copy is
//     O(tiles + links), the refresh O(journal entries));
//   - route-cache hit rate once the churn has warmed the cache;
//   - the gated share of commits (inline pump: everything gates).
// The serial-replay oracle must hold on every mesh: replaying the
// surviving applications' mappings onto a fresh state must reproduce the
// manager's bookkeeping, and every mapping must pass full mapping_fits.
//
// Results are emitted as BENCH_x10.json for the CI perf trail (the CI
// bench-smoke job gates on oracle == "identical" and
// snapshot_speedup_16 >= 2).
//
// Flags: --short (CI smoke: fewer churn steps, no 32x32 mesh),
//        --json PATH (default BENCH_x10.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "kpn/application.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/stats_report.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"

namespace {

using namespace rtsm;

/// NxN mesh: 2 multi-slot IO corners, the rest alternating quad-slot ARM
/// and single-context MONTIUM compute tiles (the X7 recipe, scaled).
arch::Platform make_mesh(std::uint32_t n) {
  arch::Platform p("x10 mesh " + std::to_string(n) + "x" + std::to_string(n),
                   n, n);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);

  p.add_tile("SRC", io, 0, 0, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, n - 1, n - 1, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
      if ((x + y) % 2 == 0) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/4);
      } else {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

/// Compute pipeline with an ARM and a MONTIUM implementation per stage —
/// no IO fixtures, so churn is not serialized on the two IO corners.
std::shared_ptr<const kpn::Application> make_app(std::uint32_t stages,
                                                 std::uint32_t index) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  std::string name = "churn";
  name += std::to_string(index);
  kpn::Application app(name, qos);
  std::vector<ProcessId> procs;
  for (std::uint32_t i = 0; i < stages; ++i) {
    std::string process = "S";
    process += std::to_string(i);
    procs.push_back(app.add_process(process));
  }
  std::vector<ChannelId> chain;
  for (std::uint32_t i = 0; i + 1 < stages; ++i) {
    chain.push_back(app.connect(procs[i], procs[i + 1], 16));
  }
  for (std::uint32_t i = 0; i < stages; ++i) {
    for (const char* type : {"ARM", "MONTIUM"}) {
      kpn::Implementation im;
      im.name = app.process(procs[i]).name + "@" + type;
      im.tile_type = type;
      im.wcet_cc = {type[0] == 'A' ? 300u : 150u};
      for (const ChannelId cid : app.in_channels(procs[i])) {
        im.inputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
      }
      for (const ChannelId cid : app.out_channels(procs[i])) {
        im.outputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
      }
      im.energy_nj_per_symbol = type[0] == 'A' ? 100.0 : 40.0;
      im.memory_bytes = 4 * 1024;
      app.add_implementation(procs[i], std::move(im));
    }
  }
  app.validate();
  return std::make_shared<const kpn::Application>(std::move(app));
}

struct MeshFigures {
  std::uint32_t mesh = 0;
  std::size_t tiles = 0;
  runtime::AdmissionStats stats;
  double admit_p50_us = 0.0;
  double admit_p95_us = 0.0;
  double route_cache_hit_rate = 0.0;
  double snapshot_delta_us = 0.0;  ///< Mean delta refresh, microbench.
  double snapshot_full_us = 0.0;   ///< Mean full copy, microbench.
  double snapshot_speedup = 0.0;
  double gated_share = 0.0;
  bool oracle_ok = false;
  /// Full StatsReport::to_json(), embedded in BENCH_x10.json.
  std::string stats_json;
};

/// Seeded admit/release churn through the inline-pump concurrent manager:
/// the full hot path (delta-refreshed scratch, pre-validation, gated
/// commit, shared route cache) without scheduling nondeterminism.
MeshFigures run_churn(std::uint32_t mesh, std::uint32_t steps) {
  const arch::Platform platform = make_mesh(mesh);
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()},
      {.workers = 0});

  std::mt19937 rng(20080310u + mesh);
  std::uniform_int_distribution<std::uint32_t> stages(2, 4);
  std::vector<AppId> running;
  std::vector<std::shared_ptr<const kpn::Application>> apps;
  noc::RouteCacheStats warm_base;  // cache counters at mid-churn
  for (std::uint32_t step = 0; step < steps; ++step) {
    if (step == steps / 2) {
      if (const auto cache = manager.mapper().route_cache()) {
        warm_base = cache->stats();
      }
    }
    // Steady-state occupancy: release once ~12 instances are live, so the
    // cache and journal stay warm while placements keep changing.
    if (running.size() >= 12 || (step % 4 == 3 && !running.empty())) {
      const std::size_t victim = rng() % running.size();
      manager.release(running[victim]);
      running.erase(running.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    }
    const auto app = make_app(stages(rng), step);
    apps.push_back(app);
    const runtime::AdmitOutcome outcome = manager.admit(*app);
    if (outcome.status == runtime::AdmitStatus::Admitted) {
      running.push_back(outcome.app_id);
    }
  }

  // Serial-replay oracle: the surviving mappings, replayed onto a fresh
  // state, must reproduce the manager's bookkeeping — and each must pass
  // the full mapping_fits the gated commits skipped.
  core::ResourceState replayed(platform);
  bool oracle_ok = true;
  for (const AppId id : manager.running_ids()) {
    const auto app = manager.app_of(id);
    const core::Mapping& mapping = manager.mapping_of(id);
    if (!core::mapping_fits(replayed, *app, mapping)) {
      oracle_ok = false;
      break;
    }
    core::commit_mapping(replayed, *app, mapping);
  }
  oracle_ok = oracle_ok && manager.state_snapshot() == replayed;

  MeshFigures f;
  f.mesh = mesh;
  f.tiles = platform.tile_count();
  f.stats = manager.stats();
  f.admit_p50_us = f.stats.latency_percentile_us(50);
  f.admit_p95_us = f.stats.latency_percentile_us(95);
  f.oracle_ok = oracle_ok;
  const std::uint64_t commits =
      f.stats.gated_commits + f.stats.validated_commits;
  f.gated_share = commits == 0 ? 0.0
                               : static_cast<double>(f.stats.gated_commits) /
                                     static_cast<double>(commits);
  runtime::StatsReport report = manager.stats_report();
  // "Warm" hit rate: the second half of the churn only, so the cold
  // misses that populate the cache do not dilute the steady-state figure.
  const noc::RouteCacheStats& rc = report.route_cache;
  const std::uint64_t warm_lookups = rc.lookups - warm_base.lookups;
  f.route_cache_hit_rate =
      warm_lookups == 0 ? 0.0
                        : static_cast<double>(rc.hits - warm_base.hits) /
                              static_cast<double>(warm_lookups);
  f.stats_json = report.to_json();
  return f;
}

/// Microbench of the snapshot path itself: a live state under load, one
/// scratch, and the same refresh served both ways. The delta path replays
/// the ~8 journal entries between refreshes; the full copy it replaces
/// re-assigns every tile and link vector.
void snapshot_microbench(MeshFigures& f, std::uint32_t reps) {
  const arch::Platform platform = make_mesh(f.mesh);
  core::ResourceState live(platform);
  live.enable_journal();
  core::ResourceState scratch(platform);

  // Representative residual load: utilization and link traffic spread
  // over the whole mesh (what a full copy has to move per admission).
  std::mt19937 rng(42u + f.mesh);
  const std::vector<TileId> tiles = platform.tile_ids();
  for (const TileId tile : tiles) {
    live.reserve_tile(tile, 0.3, 8 * 1024, 0);
  }
  std::uniform_int_distribution<std::uint32_t> link_pick(
      0, static_cast<std::uint32_t>(platform.link_count()) - 1);
  for (std::uint32_t i = 0; i < platform.link_count() / 2; ++i) {
    const LinkId link{link_pick(rng)};
    if (live.links().fits(link, 1e6)) live.links().reserve(link, 1e6);
  }

  // Per admission the journal advances by a handful of entries (one
  // app's tiles + links); model that with 8 mutations per refresh.
  std::uniform_int_distribution<std::size_t> tile_pick(0, tiles.size() - 1);
  const auto mutate_a_little = [&] {
    for (int m = 0; m < 4; ++m) {
      // Small enough that no tile runs dry over the four timed loops (a
      // release beyond the books throws): on the 6x6 mesh each tile gives
      // ~4.4k of its 8 KiB at 10k reps.
      live.release_tile(tiles[tile_pick(rng)], 1e-6, 1, 0);
      const LinkId link{link_pick(rng)};
      if (live.links().fits(link, 1e4)) live.links().reserve(link, 1e4);
    }
  };

  // Time whole loops and subtract a mutation-only baseline: the
  // inter-refresh mutations model the churn but are not part of the
  // snapshot path being compared, and per-rep clock reads would bias the
  // (tens of nanoseconds) refresh measurement.
  const auto time_loop = [&](auto&& body) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < reps; ++r) {
      mutate_a_little();
      body();
    }
    return elapsed_us(start);
  };
  live.refresh_snapshot_into(scratch);      // arm the token
  time_loop([] {});                         // warm caches
  const double mutate_us = time_loop([] {});
  // The baseline loop left the scratch > journal-capacity stale, so the
  // first refresh below is one full-copy fallback among `reps` replays.
  const double delta_us =
      time_loop([&] { live.refresh_snapshot_into(scratch); });
  // The pre-PR8 path: a full copy-assign every admission.
  const double full_us = time_loop([&] { scratch = live; });

  f.snapshot_delta_us = std::max(0.0, delta_us - mutate_us) / reps;
  f.snapshot_full_us = std::max(0.0, full_us - mutate_us) / reps;
  f.snapshot_speedup =
      f.snapshot_delta_us > 0.0 ? f.snapshot_full_us / f.snapshot_delta_us
                                : 0.0;
}

void write_one(std::FILE* out, const MeshFigures& f, bool last) {
  const runtime::AdmissionStats& s = f.stats;
  std::fprintf(
      out,
      "    {\"mesh\": %u, \"tiles\": %zu, \"offered\": %llu, "
      "\"admitted\": %llu, \"rejected\": %llu, "
      "\"admit_p50_us\": %.2f, \"admit_p95_us\": %.2f, "
      "\"snapshot_time_us\": %.1f, \"map_time_us\": %.1f, "
      "\"validate_time_us\": %.1f, \"commit_time_us\": %.1f, "
      "\"snapshot_delta_refreshes\": %llu, \"snapshot_full_copies\": %llu, "
      "\"journal_entries_replayed\": %llu, "
      "\"gated_commits\": %llu, \"validated_commits\": %llu, "
      "\"gated_share\": %.4f, \"route_cache_hit_rate\": %.4f, "
      "\"snapshot_delta_us\": %.3f, \"snapshot_full_us\": %.3f, "
      "\"snapshot_speedup\": %.2f, \"oracle_ok\": %s, "
      "\"stats_report\": %s}%s\n",
      f.mesh, f.tiles, static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.rejected), f.admit_p50_us,
      f.admit_p95_us, s.snapshot_time_us, s.map_time_us, s.validate_time_us,
      s.commit_time_us,
      static_cast<unsigned long long>(s.snapshot_delta_refreshes),
      static_cast<unsigned long long>(s.snapshot_full_copies),
      static_cast<unsigned long long>(s.journal_entries_replayed),
      static_cast<unsigned long long>(s.gated_commits),
      static_cast<unsigned long long>(s.validated_commits), f.gated_share,
      f.route_cache_hit_rate, f.snapshot_delta_us, f.snapshot_full_us,
      f.snapshot_speedup, f.oracle_ok ? "true" : "false",
      f.stats_json.c_str(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x10.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== X10: admission hot path, O(changes) vs O(platform) ====\n\n");

  std::vector<std::uint32_t> meshes = {6, 16, 32};
  if (short_mode) meshes.pop_back();
  const std::uint32_t steps = short_mode ? 120 : 400;
  const std::uint32_t reps = short_mode ? 2000 : 10000;

  std::vector<MeshFigures> figures;
  for (const std::uint32_t mesh : meshes) {
    MeshFigures f = run_churn(mesh, steps);
    snapshot_microbench(f, reps);
    figures.push_back(std::move(f));
  }

  io::TablePrinter table({"Mesh", "Tiles", "Admitted", "p50 us", "p95 us",
                          "Delta ref", "Full cp", "Gated", "RC hit",
                          "Snap dx us", "Snap full us", "Speedup", "Oracle"});
  for (std::size_t c = 1; c < 13; ++c) table.align_right(c);
  for (const MeshFigures& f : figures) {
    table.add_row(
        {std::to_string(f.mesh) + "x" + std::to_string(f.mesh),
         std::to_string(f.tiles), std::to_string(f.stats.admitted),
         format_double(f.admit_p50_us, 1), format_double(f.admit_p95_us, 1),
         std::to_string(f.stats.snapshot_delta_refreshes),
         std::to_string(f.stats.snapshot_full_copies),
         format_double(100.0 * f.gated_share, 0) + "%",
         format_double(100.0 * f.route_cache_hit_rate, 0) + "%",
         format_double(f.snapshot_delta_us, 3),
         format_double(f.snapshot_full_us, 3),
         format_double(f.snapshot_speedup, 1) + "x",
         f.oracle_ok ? "ok" : "MISMATCH"});
  }
  std::printf("%s\n", table.to_string().c_str());

  bool oracle_all = true;
  double speedup_16 = 0.0;
  double hit_rate_16 = 0.0;
  for (const MeshFigures& f : figures) {
    oracle_all = oracle_all && f.oracle_ok;
    if (f.mesh == 16) {
      speedup_16 = f.snapshot_speedup;
      hit_rate_16 = f.route_cache_hit_rate;
    }
  }
  std::printf(
      "16x16: delta refresh %.1fx cheaper than the full copy it replaced; "
      "route cache at %.0f%% hits under warm churn.\n\n",
      speedup_16, 100.0 * hit_rate_16);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"x10_hot_path\",\n");
  std::fprintf(out, "  \"steps\": %u,\n  \"meshes\": [\n", steps);
  for (std::size_t i = 0; i < figures.size(); ++i) {
    write_one(out, figures[i], i + 1 == figures.size());
  }
  std::fprintf(out,
               "  ],\n  \"snapshot_speedup_16\": %.3f,\n"
               "  \"route_cache_hit_rate_16\": %.4f,\n"
               "  \"oracle\": \"%s\"\n}\n",
               speedup_16, hit_rate_16,
               oracle_all ? "identical" : "MISMATCH");
  std::fclose(out);
  std::printf("Wrote %s\n", json_path.c_str());

  std::printf(
      "\nReading: the snapshot columns isolate the refresh change — the\n"
      "full copy grows with the mesh (tiles + links) while the delta\n"
      "refresh tracks the journal (a handful of entries per admission),\n"
      "so the speedup widens with the platform. Gated commits and the\n"
      "route-cache hit rate shave the remaining per-admission overheads;\n"
      "the oracle confirms none of the three shortcuts changed any\n"
      "booking.\n");
  return 0;
}
