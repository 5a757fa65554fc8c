// Extension bench X9: portfolio admission across the mapper registry.
//
// A single run-time mapping heuristic trades quality for latency at one
// fixed point; which heuristic wins depends on the arrival's structure
// and on the residual state it meets. Portfolio admission refuses to
// choose: on every shape-library miss, the manager races the configured
// registry strategies on independent ResourceState snapshots and commits
// the best feasible plan (here: lowest energy per symbol) through the
// ordinary two-phase validate/commit path.
//
// This bench replays one seeded X8-style churn schedule — arrivals drawn
// from a fixed pool of mixed ARM/MONTIUM skeletons with bounded wave
// lifetimes — through every single registry strategy (exhaustive is
// excluded: branch-and-bound over churn-sized instances), then through
// the portfolio on both managers: the serial RuntimeManager races the
// strategies sequentially, the ConcurrentRuntimeManager fans them out
// across its 4-worker pool with cooperative cancellation.
//
// Exactness oracle (per wave, every configuration): replaying the
// surviving admissions onto a fresh ResourceState must reproduce the
// manager's live bookkeeping.
//
// Results are emitted as BENCH_x9.json for the CI perf trail. CI gates on
// oracle == "identical" and portfolio_reject_rate <= best_single_reject_rate
// (racing every strategy may not admit less than the best single one).
//
// Flags: --short (CI smoke: fewer waves),
//        --json PATH (default BENCH_x9.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "core/mapper_registry.hpp"
#include "core/portfolio.hpp"
#include "io/table.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

/// 6x6 mesh, 10 hex-slot ARM tiles and 10 single-context MONTIUM tiles
/// interleaved, IO tiles named as the HIPERLAN/2 fixtures expect.
arch::Platform make_x9_platform() {
  arch::NocParams noc;
  arch::Platform p("x9 portfolio 6x6", 6, 6, noc);
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

/// Mixed skeleton pool: seeded synthetic ARM chains of varying width plus
/// one HIPERLAN/2 mode whose Inv.OFDM/demapping stages are MONTIUM-only —
/// the structural variety that makes different heuristics win different
/// races.
std::vector<std::shared_ptr<const kpn::Application>> make_pool(
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::shared_ptr<const kpn::Application>> pool;
  for (std::uint32_t i = 0; i < 6; ++i) {
    workload::SyntheticAppParams params;
    params.process_count = 2 + i % 4;
    params.with_fixtures = false;
    params.tile_types = {"ARM"};
    params.max_preferred_utilization = 0.22;
    pool.push_back(std::make_shared<kpn::Application>(
        workload::make_synthetic_app(rng, params,
                                     "pool-" + std::to_string(i))));
  }
  pool.push_back(std::make_shared<kpn::Application>(
      workload::hiperlan2_mode_variant(workload::kHiperlan2Modes[0].mode)));
  return pool;
}

struct Arrival {
  std::uint32_t pool_index = 0;
  std::uint32_t wave = 0;
  std::uint32_t lifetime_waves = 0;
};

std::vector<Arrival> make_schedule(std::uint32_t waves,
                                   std::uint32_t per_wave, std::size_t pool,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> schedule;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    for (std::uint32_t a = 0; a < per_wave; ++a) {
      Arrival arrival;
      arrival.wave = wave;
      arrival.pool_index = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<int>(pool) - 1));
      arrival.lifetime_waves =
          static_cast<std::uint32_t>(rng.uniform_int(3, 8));
      schedule.push_back(arrival);
    }
  }
  return schedule;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct PortfolioFigures {
  std::string label;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double reject_rate = 0.0;
  double median_admit_us = 0.0;
  double p95_us = 0.0;
  double mean_energy_nj = 0.0;  ///< Mean energy/symbol of admitted plans.
  std::uint64_t races = 0;
  std::uint64_t fallbacks = 0;
  bool oracle_ok = true;
  std::string stats_json;  ///< Full StatsReport::to_json() of the run.
};

void finish_figures(PortfolioFigures& figures,
                    const runtime::AdmissionStats& stats,
                    const std::vector<double>& latencies,
                    double energy_sum) {
  figures.offered = stats.offered;
  figures.admitted = stats.admitted;
  figures.rejected = stats.rejected;
  figures.reject_rate =
      stats.offered == 0
          ? 0.0
          : static_cast<double>(stats.rejected) /
                static_cast<double>(stats.offered);
  figures.median_admit_us = median(latencies);
  figures.p95_us = stats.latency_percentile_us(95);
  figures.mean_energy_nj =
      stats.admitted == 0 ? 0.0
                          : energy_sum / static_cast<double>(stats.admitted);
  figures.races = stats.portfolio_races;
  figures.fallbacks = stats.portfolio_fallbacks;
}

/// One churn replay through the serial manager (single strategy when
/// options.portfolio is empty, sequential race otherwise).
PortfolioFigures run_serial(
    const arch::Platform& platform,
    const std::vector<std::shared_ptr<const kpn::Application>>& pool,
    const std::vector<Arrival>& schedule, std::uint32_t waves,
    runtime::ManagerOptions options, std::string label) {
  runtime::RuntimeManager manager(platform, std::move(options));

  PortfolioFigures figures;
  figures.label = std::move(label);
  struct Live {
    AppId id;
    std::uint32_t release_wave = 0;
  };
  std::vector<Live> live;
  std::vector<double> latencies;
  double energy_sum = 0.0;

  std::size_t next = 0;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    for (auto it = live.begin(); it != live.end();) {
      if (it->release_wave <= wave) {
        manager.submit_release(it->id);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    while (next < schedule.size() && schedule[next].wave == wave) {
      const Arrival& arrival = schedule[next];
      manager.submit(pool[arrival.pool_index]);
      ++next;
      for (const auto& outcome : manager.drain()) {
        if (outcome.status != runtime::AdmitStatus::Admitted) continue;
        live.push_back({outcome.app_id,
                        arrival.wave + arrival.lifetime_waves});
        latencies.push_back(outcome.mapping_us);
        energy_sum += outcome.mapping.energy_nj_per_symbol;
      }
    }
    manager.drain();

    // Per-wave serial-replay oracle.
    core::ResourceState replayed(platform);
    for (const AppId id : manager.running_ids()) {
      core::commit_mapping(replayed, *manager.app_of(id),
                           manager.mapping_of(id));
    }
    if (manager.state() != replayed) figures.oracle_ok = false;
  }

  finish_figures(figures, manager.stats(), latencies, energy_sum);
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

/// The same churn through the concurrent manager: admissions submitted
/// from the bench thread, the race fanned out across the worker pool.
PortfolioFigures run_concurrent(
    const arch::Platform& platform,
    const std::vector<std::shared_ptr<const kpn::Application>>& pool,
    const std::vector<Arrival>& schedule, std::uint32_t waves,
    runtime::ManagerOptions options, std::uint32_t workers,
    std::string label) {
  runtime::ConcurrentRuntimeManager manager(
      platform, std::move(options),
      {.workers = workers, .queue_capacity = 64});

  PortfolioFigures figures;
  figures.label = std::move(label);
  struct Live {
    AppId id;
    std::uint32_t release_wave = 0;
  };
  std::vector<Live> live;
  std::vector<double> latencies;
  double energy_sum = 0.0;

  std::size_t next = 0;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    for (auto it = live.begin(); it != live.end();) {
      if (it->release_wave <= wave) {
        manager.release(it->id);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    while (next < schedule.size() && schedule[next].wave == wave) {
      const Arrival& arrival = schedule[next];
      const auto outcome = manager.admit(*pool[arrival.pool_index]);
      ++next;
      if (outcome.status != runtime::AdmitStatus::Admitted) continue;
      live.push_back({outcome.app_id,
                      arrival.wave + arrival.lifetime_waves});
      latencies.push_back(outcome.mapping_us);
      energy_sum += outcome.mapping.energy_nj_per_symbol;
    }
    manager.wait_idle();

    core::ResourceState replayed(platform);
    for (const AppId id : manager.running_ids()) {
      core::commit_mapping(replayed, *manager.app_of(id),
                           manager.mapping_of(id));
    }
    if (manager.state_snapshot() != replayed) {
      figures.oracle_ok = false;
    }
  }

  finish_figures(figures, manager.stats(), latencies, energy_sum);
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

void print_row(io::TablePrinter& table, const PortfolioFigures& f) {
  table.add_row({f.label, std::to_string(f.offered),
                 std::to_string(f.admitted), std::to_string(f.rejected),
                 rtsm::format_double(100.0 * f.reject_rate, 1) + "%",
                 rtsm::format_double(f.median_admit_us, 1),
                 rtsm::format_double(f.mean_energy_nj, 1),
                 f.oracle_ok ? "ok" : "MISMATCH"});
}

void write_json(const std::string& path, std::uint32_t waves,
                const std::vector<PortfolioFigures>& singles,
                const PortfolioFigures& serial,
                const PortfolioFigures& concurrent) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto one = [&](const PortfolioFigures& c, bool with_report) {
    std::fprintf(
        f,
        "    \"%s\": {\"offered\": %llu, \"admitted\": %llu, "
        "\"rejected\": %llu, \"reject_rate\": %.4f, "
        "\"median_admit_us\": %.2f, \"p95_us\": %.1f, "
        "\"mean_energy_nj\": %.2f, \"races\": %llu, \"fallbacks\": %llu, "
        "\"oracle_ok\": %s",
        c.label.c_str(), static_cast<unsigned long long>(c.offered),
        static_cast<unsigned long long>(c.admitted),
        static_cast<unsigned long long>(c.rejected), c.reject_rate,
        c.median_admit_us, c.p95_us, c.mean_energy_nj,
        static_cast<unsigned long long>(c.races),
        static_cast<unsigned long long>(c.fallbacks),
        c.oracle_ok ? "true" : "false");
    if (with_report) {
      std::fprintf(f, ", \"stats_report\": %s", c.stats_json.c_str());
    }
    std::fprintf(f, "}");
  };

  const PortfolioFigures* best = nullptr;
  for (const PortfolioFigures& s : singles) {
    if (best == nullptr || s.reject_rate < best->reject_rate) best = &s;
  }
  const double portfolio_reject =
      std::max(serial.reject_rate, concurrent.reject_rate);
  bool oracle = serial.oracle_ok && concurrent.oracle_ok;
  for (const PortfolioFigures& s : singles) oracle = oracle && s.oracle_ok;

  std::fprintf(f, "{\n  \"bench\": \"x9_portfolio\",\n  \"waves\": %u,\n",
               waves);
  std::fprintf(f, "  \"configs\": {\n");
  for (const PortfolioFigures& s : singles) {
    one(s, false);
    std::fprintf(f, ",\n");
  }
  one(serial, true);
  std::fprintf(f, ",\n");
  one(concurrent, true);
  std::fprintf(f, "\n  },\n");
  std::fprintf(f,
               "  \"best_single\": \"%s\",\n"
               "  \"best_single_reject_rate\": %.4f,\n"
               "  \"portfolio_reject_rate\": %.4f,\n"
               "  \"oracle\": \"%s\"\n}\n",
               best != nullptr ? best->label.c_str() : "?",
               best != nullptr ? best->reject_rate : 1.0, portfolio_reject,
               oracle ? "identical" : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x9.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== X9: portfolio admission vs. single strategies =========\n\n");

  const std::uint32_t waves = short_mode ? 16 : 48;
  const std::uint32_t per_wave = 2;
  const arch::Platform platform = make_x9_platform();
  const auto pool = make_pool(/*seed=*/4242);
  const auto schedule =
      make_schedule(waves, per_wave, pool.size(), /*seed=*/777);
  const auto registry = std::make_shared<const core::MapperRegistry>(
      baselines::builtin_mappers());

  // Every registered strategy except exhaustive (branch-and-bound does not
  // terminate in bench time on churn-sized instances).
  std::vector<std::string> strategies;
  for (const std::string& name : registry->names()) {
    if (name != "exhaustive") strategies.push_back(name);
  }

  std::vector<PortfolioFigures> singles;
  for (const std::string& name : strategies) {
    std::shared_ptr<const core::Mapper> mapper = registry->create(name);
    singles.push_back(run_serial(platform, pool, schedule, waves,
                                 {.mapper = std::move(mapper)}, name));
  }

  core::PortfolioOptions portfolio;
  portfolio.strategies = strategies;
  portfolio.selection = core::PortfolioSelection::BestEnergy;
  const PortfolioFigures serial =
      run_serial(platform, pool, schedule, waves,
                 {.portfolio = portfolio, .registry = registry},
                 "portfolio-serial");
  const PortfolioFigures concurrent =
      run_concurrent(platform, pool, schedule, waves,
                     {.portfolio = portfolio, .registry = registry},
                     /*workers=*/4, "portfolio-concurrent");

  io::TablePrinter table({"Config", "Offered", "Admitted", "Rejected",
                          "Reject%", "Med us", "Energy nJ", "Oracle"});
  for (std::size_t c = 1; c < 7; ++c) table.align_right(c);
  for (const PortfolioFigures& s : singles) print_row(table, s);
  table.add_rule();
  print_row(table, serial);
  print_row(table, concurrent);
  std::printf("%s\n", table.to_string().c_str());

  write_json(json_path, waves, singles, serial, concurrent);
  return 0;
}
