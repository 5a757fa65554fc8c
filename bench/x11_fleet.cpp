// Extension bench X11: fleet-scale serving — multi-platform federation,
// background defrag and the persisted scenario trace.
//
// Three questions, one seeded mode-churn schedule:
//   - capacity:  the same overload schedule replayed against a K=1 and a
//                K=4 FleetManager (pump mode, deterministic). The fleet's
//                least-loaded dispatch + spill-over must convert the extra
//                platforms into admitted applications: the CI gate wants
//                K=4 to admit >= 1.5x what one platform does.
//   - replay:    the K=4 run is recorded as a ScenarioTrace, persisted to
//                JSON on disk, parsed back and replayed on a fresh fleet.
//                The wave-outcome logs must match bit for bit ("identical"
//                in the JSON, the CI regression gate).
//   - defrag:    a seeded admit/release churn loop fragments the fleet;
//                one arm runs deterministic defrag_tick() maintenance
//                between bursts, the other does not. Compaction must not
//                cost admissions: defrag-on rejects <= defrag-off rejects.
//
// Results are emitted as BENCH_x11.json for the CI perf trail; the
// recorded trace is persisted alongside (default BENCH_x11_trace.json).
//
// Flags: --short (CI smoke: fewer waves),
//        --json PATH (default BENCH_x11.json),
//        --trace PATH (default BENCH_x11_trace.json).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scenario.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

/// The X7 6x6 mesh: 10 quad-slot ARM + 10 single-context MONTIUM tiles,
/// HIPERLAN/2 IO fixtures. One instance is one platform; the fleet runs K.
arch::Platform make_x11_platform() {
  arch::NocParams noc;
  arch::Platform p("x11 fleet 6x6", 6, 6, noc);
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

runtime::FleetOptions fleet_options(std::size_t platforms) {
  runtime::FleetOptions options;
  options.platforms = platforms;
  options.workers = 0;  // pump mode: deterministic dispatch order
  options.manager.mapper = std::make_shared<core::SpatialMapper>();
  return options;
}

struct FleetRun {
  std::size_t platforms = 0;
  runtime::ScenarioStats scenario;
  runtime::FleetStats fleet;
  double elapsed_s = 0.0;
  double admitted_per_s = 0.0;
  std::string report_json;
};

FleetRun run_fleet(const arch::Platform& platform,
                   const runtime::Schedule& schedule, std::size_t platforms) {
  runtime::FleetManager fleet(platform, fleet_options(platforms));
  runtime::FleetTarget target(fleet);
  runtime::ScenarioDriver driver(target, schedule);
  const auto start = std::chrono::steady_clock::now();
  FleetRun run;
  run.platforms = platforms;
  run.scenario = driver.run();
  run.elapsed_s = elapsed_us(start) / 1e6;
  run.admitted_per_s = run.elapsed_s > 0.0
                           ? static_cast<double>(run.scenario.admitted) /
                                 run.elapsed_s
                           : 0.0;
  run.fleet = fleet.fleet_stats();
  run.report_json = fleet.stats_report().to_json();
  return run;
}

/// Seeded admit/release churn with bursts of wide apps: fragmentation
/// builds as mid-life releases punch holes across the platforms. The
/// defrag arm compacts with one deterministic defrag_tick() per burst.
struct ChurnResult {
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t defrag_passes = 0;
  [[nodiscard]] double reject_rate() const {
    return offered > 0 ? static_cast<double>(rejected) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

ChurnResult run_churn(const arch::Platform& platform, bool with_defrag,
                      std::uint32_t bursts) {
  runtime::FleetOptions options = fleet_options(2);
  options.background_defrag.platforms_per_tick = 2;
  options.background_defrag.min_fragmentation = 0.0;  // always compact
  runtime::FleetManager fleet(platform, options);

  Rng rng(4242);  // same stream in both arms: identical offered workload
  workload::SyntheticAppParams narrow;
  narrow.process_count = 2;
  narrow.with_fixtures = false;
  narrow.tile_types = {"ARM"};
  narrow.max_preferred_utilization = 0.45;
  workload::SyntheticAppParams wide = narrow;
  wide.process_count = 7;

  ChurnResult result;
  std::vector<AppId> live;
  std::uint32_t serial = 0;
  for (std::uint32_t burst = 0; burst < bursts; ++burst) {
    // Admit a burst of narrow apps, then punch holes by releasing every
    // other one — classic fragmentation bait for the wide apps below.
    for (int i = 0; i < 10; ++i) {
      std::string name = "n";
      name += std::to_string(serial++);
      const auto app = workload::make_synthetic_app(rng, narrow, name);
      ++result.offered;
      const auto out = fleet.admit(app);
      if (out.status == runtime::AdmitStatus::Admitted) {
        live.push_back(out.app_id);
      } else {
        ++result.rejected;
      }
    }
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      fleet.release(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (with_defrag) fleet.defrag_tick();
    for (int i = 0; i < 2; ++i) {
      std::string name = "w";
      name += std::to_string(serial++);
      const auto app = workload::make_synthetic_app(rng, wide, name);
      ++result.offered;
      const auto out = fleet.admit(app);
      if (out.status == runtime::AdmitStatus::Admitted) {
        live.push_back(out.app_id);
      } else {
        ++result.rejected;
      }
    }
  }
  result.defrag_passes = fleet.fleet_stats().defrag_passes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x11.json";
  std::string trace_path = "BENCH_x11_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  std::printf("== X11: fleet federation, defrag thread, trace replay ====\n\n");

  const auto platform = make_x11_platform();
  const std::uint64_t seed = 20080310;
  runtime::ScheduleParams params;
  params.waves = short_mode ? 14 : 36;
  params.arrivals_per_wave = 6;  // overload: one platform must saturate
  params.hiperlan_fraction = 0.4;
  params.switch_prob = 0.4;
  params.lifetime_min = 5;
  params.lifetime_max = 12;
  const runtime::Schedule schedule =
      runtime::make_mode_churn_schedule(params, seed);

  // ---- capacity: K=1 vs K=4 on the identical overload schedule --------
  const FleetRun single = run_fleet(platform, schedule, 1);
  const FleetRun quad = run_fleet(platform, schedule, 4);
  const double speedup =
      single.scenario.admitted > 0
          ? static_cast<double>(quad.scenario.admitted) /
                static_cast<double>(single.scenario.admitted)
          : 0.0;

  io::TablePrinter table({"Fleet", "Admitted", "Rejected", "Spills",
                          "Dispatch imbal.", "Admitted/s", "Oracle"});
  for (std::size_t c = 1; c < 7; ++c) table.align_right(c);
  for (const FleetRun* run : {&single, &quad}) {
    table.add_row({"K=" + std::to_string(run->platforms),
                   std::to_string(run->scenario.admitted),
                   std::to_string(run->scenario.rejected),
                   std::to_string(run->fleet.spills),
                   rtsm::format_double(run->fleet.max_imbalance, 3),
                   rtsm::format_double(run->admitted_per_s, 0),
                   run->scenario.oracle_ok ? "ok" : "MISMATCH"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Admitted throughput K=4 / K=1: %.2fx (gate: >= 1.5x)\n\n",
              speedup);

  // ---- record -> persist -> parse -> replay ---------------------------
  runtime::ScenarioTrace trace;
  trace.seed = seed;
  trace.schedule = schedule;
  trace.outcomes = quad.scenario.wave_log;
  {
    std::ofstream out(trace_path);
    out << runtime::trace_to_json(trace);
  }
  std::string replay_verdict = "MISMATCH";
  {
    std::ifstream in(trace_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const runtime::ScenarioTrace parsed =
        runtime::trace_from_json(buffer.str());
    const FleetRun replayed = run_fleet(platform, parsed.schedule, 4);
    if (runtime::outcomes_identical(replayed.scenario.wave_log,
                                    parsed.outcomes) &&
        replayed.scenario.oracle_ok) {
      replay_verdict = "identical";
    }
  }
  std::printf("Persisted trace %s; replay from disk: %s\n\n",
              trace_path.c_str(), replay_verdict.c_str());

  // ---- defrag-on vs defrag-off churn ----------------------------------
  const std::uint32_t bursts = short_mode ? 10 : 24;
  const ChurnResult defrag_off = run_churn(platform, false, bursts);
  const ChurnResult defrag_on = run_churn(platform, true, bursts);
  std::printf(
      "Churn (%u bursts, K=2): defrag-off rejected %llu/%llu (%.1f%%), "
      "defrag-on rejected %llu/%llu (%.1f%%, %llu passes)\n\n",
      bursts, static_cast<unsigned long long>(defrag_off.rejected),
      static_cast<unsigned long long>(defrag_off.offered),
      100.0 * defrag_off.reject_rate(),
      static_cast<unsigned long long>(defrag_on.rejected),
      static_cast<unsigned long long>(defrag_on.offered),
      100.0 * defrag_on.reject_rate(),
      static_cast<unsigned long long>(defrag_on.defrag_passes));

  const bool oracle_ok =
      single.scenario.oracle_ok && quad.scenario.oracle_ok;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"x11_fleet\",\n  \"waves\": %u,\n",
               params.waves);
  for (const FleetRun* run : {&single, &quad}) {
    std::fprintf(
        f,
        "  \"k%zu\": {\"admitted\": %llu, \"rejected\": %llu, "
        "\"switches\": %llu, \"spills\": %llu, \"spill_failures\": %llu, "
        "\"max_imbalance\": %.4f, \"elapsed_s\": %.3f, "
        "\"admitted_per_s\": %.1f, \"oracle_ok\": %s, "
        "\"fleet_report\": %s},\n",
        run->platforms,
        static_cast<unsigned long long>(run->scenario.admitted),
        static_cast<unsigned long long>(run->scenario.rejected),
        static_cast<unsigned long long>(run->scenario.switches),
        static_cast<unsigned long long>(run->fleet.spills),
        static_cast<unsigned long long>(run->fleet.spill_failures),
        run->fleet.max_imbalance, run->elapsed_s, run->admitted_per_s,
        run->scenario.oracle_ok ? "true" : "false",
        run->report_json.c_str());
  }
  std::fprintf(
      f,
      "  \"fleet_speedup\": %.3f,\n"
      "  \"defrag_off_rejects\": %llu,\n"
      "  \"defrag_on_rejects\": %llu,\n"
      "  \"defrag_passes\": %llu,\n"
      "  \"trace_file\": \"%s\",\n"
      "  \"trace_replay\": \"%s\",\n"
      "  \"oracle\": \"%s\"\n}\n",
      speedup, static_cast<unsigned long long>(defrag_off.rejected),
      static_cast<unsigned long long>(defrag_on.rejected),
      static_cast<unsigned long long>(defrag_on.defrag_passes),
      trace_path.c_str(), replay_verdict.c_str(),
      oracle_ok ? "identical" : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", json_path.c_str());

  std::printf(
      "\nReading: the fleet converts K platforms into admitted streams —\n"
      "least-loaded dispatch spreads the overload, spill-over recovers\n"
      "first-choice rejects, and the recorded trace replays bit-identically\n"
      "from disk. Deterministic defrag ticks compact the platforms without\n"
      "costing admissions.\n");
  return 0;
}
