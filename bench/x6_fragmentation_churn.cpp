// Extension bench X6: fragmentation churn and defragmentation.
//
// Long admit/release churn fragments the mesh: utilisation smears over
// many partially-used tiles and the free capacity splinters, until
// requests are rejected although the summed capacity would hold them.
// This bench replays the *same* seeded arrival/departure schedule through
// the serial RuntimeManager under the three DefragPolicy settings (off /
// on-release-threshold / on-reject) and compares reject rate, admission
// latency and fragmentation. The churn mix is diversified with
// workload::hiperlan2_mode_variant (the seven demapping modes as distinct
// applications) next to small and large synthetic ARM apps.
//
// Exactness oracle: after every wave — hence after every defrag pass —
// replaying the surviving admissions onto a fresh ResourceState must
// reproduce the manager's live state exactly (==).
//
// Results are emitted as BENCH_x6.json for the CI perf trail.
//
// Flags: --short (CI smoke: fewer waves),
//        --json PATH (default BENCH_x6.json).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fragmentation.hpp"
#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

/// 6x6 mesh: 10 quad-slot ARM tiles and 10 single-context MONTIUM tiles
/// interleaved over the grid, plus fast IO tiles named exactly as the
/// HIPERLAN/2 fixtures expect ("A/D", "Sink") so mode variants can be
/// admitted next to the synthetic apps. The IO clock is 8x the tile clock
/// so one A/D block paces several concurrent receivers.
arch::Platform make_x6_platform() {
  arch::NocParams noc;
  arch::Platform p("x6 churn 6x6", 6, 6, noc);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);

  p.add_tile("A/D", io, 0, 2, 64 * 1024, /*process_slots=*/8);
  p.add_tile("Sink", io, 5, 3, 64 * 1024, /*process_slots=*/8);

  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 6 && arms + montiums < 20; ++y) {
    for (std::uint32_t x = 0; x < 6 && arms + montiums < 20; ++x) {
      if ((x == 0 && y == 2) || (x == 5 && y == 3)) continue;  // IO
      if ((x + y) % 2 == 0 && arms < 10) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/6);
      } else if (montiums < 10) {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

/// A two-process chain whose stages each claim ~0.40-0.45 of a tile: the
/// mapper co-locates them (intra-tile channels are free), so the app
/// demands one ARM tile with ~0.65 spare capacity — the victim of
/// fragmentation. Churn smears residual utilisation until no such tile
/// exists although the summed slack is ample; consolidating the small
/// residents back onto fewer tiles is exactly what re-admits it.
kpn::Application make_big_app(Rng& rng, const std::string& name) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app(name, qos);
  const ProcessId p0 = app.add_process("P0");
  const ProcessId p1 = app.add_process("P1");
  const auto tokens =
      static_cast<std::uint32_t>(rng.uniform_int(16, 48));
  const ChannelId ch = app.connect(p0, p1, tokens);
  for (const ProcessId pid : {p0, p1}) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@ARM";
    im.tile_type = "ARM";
    // 800 cc = one 4 us period at 200 MHz; draw 0.30..0.35 of it per
    // stage, ~0.65 for the co-located pair.
    im.wcet_cc = {static_cast<std::uint32_t>(rng.uniform_int(240, 280))};
    if (pid == p0) {
      im.outputs = {{ch, {tokens}}};
    } else {
      im.inputs = {{ch, {tokens}}};
    }
    im.energy_nj_per_symbol = rng.uniform(120.0, 200.0);
    im.memory_bytes = 8 * 1024;
    app.add_implementation(pid, std::move(im));
  }
  app.validate();
  return app;
}

/// One pre-generated arrival: the application plus its lifetime in waves
/// (drawn with the stream, so every policy configuration sees the same
/// schedule).
struct Arrival {
  std::shared_ptr<const kpn::Application> app;
  std::uint32_t wave = 0;
  std::uint32_t lifetime_waves = 0;
};

std::vector<Arrival> make_schedule(std::uint32_t waves,
                                   std::uint32_t per_wave,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> schedule;
  std::uint32_t mode_counter = 0;
  std::uint32_t serial = 0;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    for (std::uint32_t a = 0; a < per_wave; ++a) {
      Arrival arrival;
      arrival.wave = wave;
      arrival.lifetime_waves =
          static_cast<std::uint32_t>(rng.uniform_int(3, 8));
      const double kind = rng.uniform01();
      const std::string name = "x6-" + std::to_string(serial++);
      if (kind < 0.55) {
        workload::SyntheticAppParams params;
        params.process_count = 2;
        params.with_fixtures = false;
        params.tile_types = {"ARM"};
        params.max_preferred_utilization = 0.25;
        arrival.app = std::make_shared<kpn::Application>(
            workload::make_synthetic_app(rng, params, name));
      } else if (kind < 0.90) {
        arrival.app =
            std::make_shared<kpn::Application>(make_big_app(rng, name));
      } else {
        const auto mode =
            workload::kHiperlan2Modes[mode_counter++ %
                                      workload::kHiperlan2Modes.size()]
                .mode;
        arrival.app = std::make_shared<kpn::Application>(
            workload::hiperlan2_mode_variant(mode));
      }
      schedule.push_back(std::move(arrival));
    }
  }
  return schedule;
}

struct ChurnFigures {
  std::string label;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double reject_rate = 0.0;
  double p95_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t defrag_passes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_failures = 0;
  double migration_cost_us = 0.0;
  double mean_frag_score = 0.0;
  bool oracle_ok = true;
  /// Full StatsReport::to_json() of the run, embedded in BENCH_x6.json.
  std::string stats_json;
};

/// Replays the schedule through one manager configuration.
ChurnFigures run_churn(const arch::Platform& platform,
                       const std::vector<Arrival>& schedule,
                       std::uint32_t waves, runtime::DefragOptions defrag,
                       std::string label) {
  runtime::RuntimeManager manager(
      platform,
      {.mapper = std::make_shared<core::SpatialMapper>(), .defrag = defrag});

  ChurnFigures figures;
  figures.label = std::move(label);
  struct Live {
    AppId id;
    std::uint32_t release_wave = 0;
  };
  std::vector<Live> live;
  double frag_sum = 0.0;

  std::size_t next = 0;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    // Departures first: everything whose lifetime ended leaves, which is
    // what punches the holes arrivals then have to fit into.
    for (auto it = live.begin(); it != live.end();) {
      if (it->release_wave <= wave) {
        manager.submit_release(it->id);
        it = live.erase(it);
      } else {
        ++it;
      }
    }

    while (next < schedule.size() && schedule[next].wave == wave) {
      manager.submit(schedule[next].app);
      ++next;
      // Interleave so each admission sees the fragmented state of the
      // moment, and releases wake the defrag trigger between waves.
      for (const auto& outcome : manager.drain()) {
        if (outcome.status == runtime::AdmitStatus::Admitted) {
          live.push_back(
              {outcome.app_id,
               schedule[next - 1].wave + schedule[next - 1].lifetime_waves});
        }
      }
    }
    manager.drain();

    // Oracle: after every wave — and therefore after every defrag pass —
    // the live state must equal a serial replay of the surviving
    // admissions onto a fresh ResourceState.
    core::ResourceState replayed(platform);
    for (const AppId id : manager.running_ids()) {
      core::commit_mapping(replayed, *manager.app_of(id),
                           manager.mapping_of(id));
    }
    if (manager.state() != replayed) figures.oracle_ok = false;

    frag_sum += core::measure_fragmentation(manager.state()).score();
  }

  const runtime::AdmissionStats& stats = manager.stats();
  figures.offered = stats.offered;
  figures.admitted = stats.admitted;
  figures.rejected = stats.rejected;
  figures.reject_rate =
      stats.offered == 0
          ? 0.0
          : static_cast<double>(stats.rejected) /
                static_cast<double>(stats.offered);
  figures.p95_us = stats.latency_percentile_us(95);
  figures.mean_us = stats.mean_latency_us();
  figures.defrag_passes = stats.defrag_passes;
  figures.migrations = stats.migrations;
  figures.migration_failures = stats.migration_failures;
  figures.migration_cost_us = stats.migration_cost_us;
  figures.mean_frag_score = frag_sum / waves;
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

void print_row(io::TablePrinter& table, const ChurnFigures& f) {
  table.add_row({f.label, std::to_string(f.offered),
                 std::to_string(f.admitted), std::to_string(f.rejected),
                 rtsm::format_double(100.0 * f.reject_rate, 1) + "%",
                 rtsm::format_double(f.p95_us, 0),
                 std::to_string(f.migrations),
                 rtsm::format_double(f.mean_frag_score, 3),
                 f.oracle_ok ? "ok" : "MISMATCH"});
}

void write_json(const std::string& path, std::uint32_t waves,
                const ChurnFigures& off, const ChurnFigures& threshold,
                const ChurnFigures& on_reject) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto one = [&](const char* name, const ChurnFigures& c) {
    std::fprintf(
        f,
        "  \"%s\": {\"offered\": %llu, \"admitted\": %llu, "
        "\"rejected\": %llu, \"reject_rate\": %.4f, \"p95_us\": %.1f, "
        "\"mean_us\": %.1f, \"defrag_passes\": %llu, \"migrations\": %llu, "
        "\"migration_failures\": %llu, \"migration_cost_us\": %.1f, "
        "\"mean_frag_score\": %.4f, \"oracle_ok\": %s",
        name, static_cast<unsigned long long>(c.offered),
        static_cast<unsigned long long>(c.admitted),
        static_cast<unsigned long long>(c.rejected), c.reject_rate, c.p95_us,
        c.mean_us, static_cast<unsigned long long>(c.defrag_passes),
        static_cast<unsigned long long>(c.migrations),
        static_cast<unsigned long long>(c.migration_failures),
        c.migration_cost_us, c.mean_frag_score,
        c.oracle_ok ? "true" : "false");
    std::fprintf(f, ", \"stats_report\": %s}", c.stats_json.c_str());
  };
  std::fprintf(f, "{\n  \"bench\": \"x6_fragmentation_churn\",\n");
  std::fprintf(f, "  \"waves\": %u,\n", waves);
  one("defrag_off", off);
  std::fprintf(f, ",\n");
  one("defrag_threshold", threshold);
  std::fprintf(f, ",\n");
  one("defrag_on_reject", on_reject);
  std::fprintf(
      f,
      ",\n  \"reject_rate_delta_threshold\": %.4f,\n"
      "  \"reject_rate_delta_on_reject\": %.4f,\n"
      "  \"oracle\": \"%s\"\n}\n",
      off.reject_rate - threshold.reject_rate,
      off.reject_rate - on_reject.reject_rate,
      off.oracle_ok && threshold.oracle_ok && on_reject.oracle_ok
          ? "identical"
          : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x6.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== X6: fragmentation churn, defrag off vs. on ============\n\n");

  const std::uint32_t waves = short_mode ? 28 : 80;
  const std::uint32_t per_wave = 4;
  const auto platform = make_x6_platform();
  const auto schedule = make_schedule(waves, per_wave, /*seed=*/20080310);

  runtime::DefragOptions off;  // policy Off

  runtime::DefragOptions threshold;
  threshold.policy = runtime::DefragPolicy::OnReleaseThreshold;
  threshold.fragmentation_threshold = 0.2;
  threshold.max_migrations_per_pass = 6;
  threshold.max_candidates = 24;

  runtime::DefragOptions on_reject = threshold;
  on_reject.policy = runtime::DefragPolicy::OnReject;

  const ChurnFigures f_off =
      run_churn(platform, schedule, waves, off, "off");
  const ChurnFigures f_threshold =
      run_churn(platform, schedule, waves, threshold, "on-release-threshold");
  const ChurnFigures f_reject =
      run_churn(platform, schedule, waves, on_reject, "on-reject");

  io::TablePrinter table({"Defrag policy", "Offered", "Admitted", "Rejected",
                          "Reject rate", "p95 us", "Migrations",
                          "Mean frag", "Oracle"});
  for (std::size_t c = 1; c < 9; ++c) table.align_right(c);
  print_row(table, f_off);
  print_row(table, f_threshold);
  print_row(table, f_reject);
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "Reject-rate delta vs. off: on-release-threshold %+.1f pp, "
      "on-reject %+.1f pp\n\n",
      100.0 * (f_off.reject_rate - f_threshold.reject_rate),
      100.0 * (f_off.reject_rate - f_reject.reject_rate));

  write_json(json_path, waves, f_off, f_threshold, f_reject);

  std::printf(
      "\nReading: the same seeded churn schedule rejects fewer\n"
      "applications when the manager compacts the mesh on release or on\n"
      "reject, at a bounded modelled migration cost, while the resource\n"
      "bookkeeping stays replay-exact after every migration pass.\n");
  return 0;
}
