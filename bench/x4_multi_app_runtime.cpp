// Extension bench X4: the run-time argument of the paper's introduction.
// A design-time allocation must reserve worst-case resources for every
// application that might run; a run-time admission manager allocates
// against the actual residual state when each application starts. This
// bench replays arrival/departure scenarios through the RuntimeManager,
// compares admissions and energy, reports the admission statistics the
// manager collects, and proves that releases restore the resource state.
//
// The burst section measures the concurrent admission path: the same
// 64-application arrival burst is pushed through the serial RuntimeManager
// and through the ConcurrentRuntimeManager's worker pool, reporting
// throughput and admission-latency percentiles, and verifying that the
// concurrent bookkeeping is exact (serial replay + full-release restore).
// Results are also emitted as BENCH_x4.json for the CI perf trail.
//
// Flags: --short (CI smoke: smaller burst, fewer scenarios),
//        --json PATH (default BENCH_x4.json).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"
#include "verify/engine.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

/// Design-time worst case: every application is mapped onto the idle
/// platform with its own statically reserved tiles; two applications may
/// never share a tile even when their utilisations would fit. We emulate
/// this by admitting an application only if it can be mapped on the idle
/// platform AND its statically chosen tiles are still unused.
class DesignTimeAllocator {
 public:
  DesignTimeAllocator(const arch::Platform& platform,
                      const core::Mapper& mapper)
      : platform_(platform),
        mapper_(mapper),
        tile_used_(platform.tile_count(), false) {}

  bool try_admit(const kpn::Application& app) {
    const auto result = mapper_.map(app, platform_);  // idle-platform plan
    if (!result.success) return false;
    // Static plan: the tiles it chose must all be free (worst case: no
    // sharing, no re-planning).
    std::vector<std::size_t> tiles;
    for (const ProcessId pid : app.process_ids()) {
      tiles.push_back(result.mapping.tile_of(pid).value());
    }
    for (const std::size_t t : tiles) {
      if (tile_used_[t]) return false;
    }
    for (const std::size_t t : tiles) tile_used_[t] = true;
    energy_ += result.energy_nj_per_symbol;
    return true;
  }

  [[nodiscard]] double energy() const { return energy_; }

 private:
  const arch::Platform& platform_;
  const core::Mapper& mapper_;
  std::vector<bool> tile_used_;
  double energy_ = 0.0;
};

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return elapsed_us(start) / 1000.0;
}

/// One burst run's figures (serial or concurrent).
struct BurstFigures {
  double wall_ms = 0.0;
  double throughput_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t conflicts = 0;
  /// The conflicts caught at a booking, before the plan's step 4 ran.
  std::uint64_t booking_conflicts = 0;
  /// Admissions planned inside a region lease, and requests whose lease
  /// attempt fell back to the whole platform (0 for the serial manager).
  std::uint64_t lease_admits = 0;
  std::uint64_t lease_fallbacks = 0;
  /// Mapping attempts per resolved request (1.0 = no re-plans).
  double attempts_per_request = 0.0;
  bool replay_ok = true;   ///< final state == serial replay of commits
  bool restore_ok = true;  ///< releasing everything restores pristine
  /// Step-4 verification engine counters of the run's mapper.
  verify::EngineStats verify;
  /// Full StatsReport::to_json() of the run, embedded in BENCH_x4.json.
  std::string stats_json;
};

void fill_percentiles(BurstFigures& figures,
                      const runtime::AdmissionStats& stats) {
  figures.p50_us = stats.latency_percentile_us(50);
  figures.p95_us = stats.latency_percentile_us(95);
  figures.p99_us = stats.latency_percentile_us(99);
  figures.admitted = stats.admitted;
  figures.rejected = stats.rejected;
  figures.conflicts = stats.conflicts;
  figures.booking_conflicts = stats.booking_conflicts;
  figures.lease_admits = stats.lease_admits;
  figures.lease_fallbacks = stats.lease_fallbacks;
}

double mean_attempts(const std::vector<runtime::AdmitOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  double attempts = 0.0;
  for (const runtime::AdmitOutcome& o : outcomes) attempts += o.attempts;
  return attempts / static_cast<double>(outcomes.size());
}

/// Pushes the burst through the serial FIFO manager, one admit at a time.
BurstFigures run_serial_burst(
    const arch::Platform& platform,
    const std::vector<std::shared_ptr<const kpn::Application>>& apps) {
  runtime::RuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()});
  BurstFigures figures;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& app : apps) manager.submit(app);
  const std::vector<runtime::AdmitOutcome> outcomes = manager.drain();
  figures.wall_ms = wall_ms_since(start);
  figures.throughput_per_s =
      static_cast<double>(apps.size()) / (figures.wall_ms / 1000.0);
  fill_percentiles(figures, manager.stats());
  figures.attempts_per_request = mean_attempts(outcomes);

  for (const AppId id : manager.running_ids()) manager.release(id);
  figures.restore_ok =
      manager.state() == core::ResourceState(platform);
  figures.verify = manager.verification_stats();
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

/// Pushes the burst through the concurrent manager: @p clients submitter
/// threads feed the bounded queue, @p workers workers admit.
BurstFigures run_concurrent_burst(
    const arch::Platform& platform,
    const std::vector<std::shared_ptr<const kpn::Application>>& apps,
    std::uint32_t workers, std::uint32_t clients) {
  runtime::ConcurrentOptions options;
  options.workers = workers;
  options.queue_capacity = 128;
  options.max_batch = 8;
  // With more than one worker the manager leases mesh stripes: concurrent
  // planners work in disjoint stripes, which avoids the burst-start
  // thundering herd (every worker planning the same tiles of an empty
  // platform and colliding at commit).
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()}, options);

  BurstFigures figures;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> submitters;
  std::vector<std::future<runtime::AdmitOutcome>> futures(apps.size());
  for (std::uint32_t c = 0; c < clients; ++c) {
    submitters.emplace_back([&, c] {
      for (std::size_t i = c; i < apps.size(); i += clients) {
        futures[i] = manager.submit(apps[i]);
      }
    });
  }
  for (auto& s : submitters) s.join();
  manager.wait_idle();
  figures.wall_ms = wall_ms_since(start);
  figures.throughput_per_s =
      static_cast<double>(apps.size()) / (figures.wall_ms / 1000.0);
  fill_percentiles(figures, manager.stats());
  std::vector<runtime::AdmitOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (auto& f : futures) outcomes.push_back(f.get());
  figures.attempts_per_request = mean_attempts(outcomes);

  // Exactness check 1: the live state must equal a serial replay of the
  // surviving commits — no interleaving may corrupt the bookkeeping.
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id), manager.mapping_of(id));
  }
  figures.replay_ok = manager.state_snapshot() == replayed;

  // Exactness check 2: releasing everything restores the pristine state.
  for (const AppId id : manager.running_ids()) manager.release(id);
  figures.restore_ok =
      manager.state_snapshot() == core::ResourceState(platform);
  figures.verify = manager.verification_stats();
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

void write_json(const std::string& path, std::size_t burst_size,
                std::uint32_t workers, const BurstFigures& serial,
                const BurstFigures& concurrent) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double speedup =
      concurrent.wall_ms > 0.0 ? serial.wall_ms / concurrent.wall_ms : 0.0;
  auto one = [&](const char* name, const BurstFigures& b) {
    std::fprintf(f,
                 "  \"%s\": {\"wall_ms\": %.3f, \"throughput_per_s\": %.2f, "
                 "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
                 "\"admitted\": %llu, \"rejected\": %llu, "
                 "\"conflicts\": %llu, \"booking_conflicts\": %llu, "
                 "\"lease_admits\": %llu, \"lease_fallbacks\": %llu, "
                 "\"attempts_per_request\": %.4f, \"replay_ok\": %s, "
                 "\"restore_ok\": %s, \"verify_hit_rate\": %.4f, "
                 "\"verify_events_saved\": %llu",
                 name, b.wall_ms, b.throughput_per_s, b.p50_us, b.p95_us,
                 b.p99_us, static_cast<unsigned long long>(b.admitted),
                 static_cast<unsigned long long>(b.rejected),
                 static_cast<unsigned long long>(b.conflicts),
                 static_cast<unsigned long long>(b.booking_conflicts),
                 static_cast<unsigned long long>(b.lease_admits),
                 static_cast<unsigned long long>(b.lease_fallbacks),
                 b.attempts_per_request,
                 b.replay_ok ? "true" : "false",
                 b.restore_ok ? "true" : "false", b.verify.hit_rate(),
                 static_cast<unsigned long long>(b.verify.events_saved));
    std::fprintf(f, ", \"stats_report\": %s}", b.stats_json.c_str());
  };
  std::fprintf(f, "{\n  \"bench\": \"x4_multi_app_runtime\",\n");
  std::fprintf(f, "  \"burst_apps\": %zu,\n  \"workers\": %u,\n",
               burst_size, workers);
  one("serial", serial);
  std::fprintf(f, ",\n");
  one("concurrent", concurrent);
  std::fprintf(f, ",\n  \"speedup\": %.2f,\n  \"state_check\": \"%s\"\n}\n",
               speedup,
               serial.restore_ok && concurrent.replay_ok &&
                       concurrent.restore_ok
                   ? "identical"
                   : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x4.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== X4: run-time vs. design-time allocation ===============\n\n");

  io::TablePrinter table({"Scenario", "Apps offered", "Run-time admits",
                          "Design-time admits", "Run-time nJ/app",
                          "Design-time nJ/app"});
  for (std::size_t c = 1; c < 6; ++c) table.align_right(c);

  const std::uint32_t scenario_count = short_mode ? 2 : 6;
  for (std::uint32_t scenario = 0; scenario < scenario_count; ++scenario) {
    Rng rng(scenario * 101 + 13);
    workload::SyntheticPlatformParams pp;
    pp.width = 4;
    pp.height = 4;
    pp.type_counts = {{"ARM", 6}, {"DSP", 6}};
    // Multi-context tiles (and IO tiles shared by several fixtures) so the
    // admission limit comes from compute capacity, not fixture slots.
    pp.process_slots = 4;
    const auto platform = workload::make_synthetic_platform(rng, pp, "p");

    // A burst of small applications arriving one by one. No shared I/O
    // fixtures: contention is purely about compute tiles and the NoC.
    const std::uint32_t offered = 6;
    std::vector<kpn::Application> apps;
    for (std::uint32_t i = 0; i < offered; ++i) {
      workload::SyntheticAppParams ap;
      ap.process_count = 3;
      ap.max_preferred_utilization = 0.35;
      ap.with_fixtures = false;
      apps.push_back(workload::make_synthetic_app(
          rng, ap, "app" + std::to_string(i)));
    }

    const auto mapper = std::make_shared<core::SpatialMapper>();
    runtime::RuntimeManager manager(platform, {.mapper = mapper});
    DesignTimeAllocator design(platform, *mapper);
    std::uint32_t design_admits = 0;
    for (const auto& app : apps) {
      manager.admit(app);
      if (design.try_admit(app)) ++design_admits;
    }
    const runtime::AdmissionStats& stats = manager.stats();

    table.add_row(
        {"burst-" + std::to_string(scenario), std::to_string(offered),
         std::to_string(stats.admitted), std::to_string(design_admits),
         stats.admitted > 0
             ? rtsm::format_double(manager.total_energy_nj_per_symbol() /
                                       static_cast<double>(stats.admitted),
                                   0)
             : std::string("-"),
         design_admits > 0
             ? rtsm::format_double(design.energy() / design_admits, 0)
             : std::string("-")});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Churn scenario: applications also stop, freeing resources only the
  // run-time manager can reuse. A retry policy parks rejected arrivals and
  // re-admits them when capacity returns.
  {
    Rng rng(999);
    workload::SyntheticPlatformParams pp;
    pp.width = 3;
    pp.height = 3;
    pp.type_counts = {{"ARM", 3}, {"DSP", 3}};
    const auto platform = workload::make_synthetic_platform(rng, pp, "p");
    runtime::RuntimeManager manager(
        platform,
        {.mapper = std::make_shared<core::SpatialMapper>(),
         .policy = std::make_shared<runtime::RetryAdmission>(4)});

    workload::SyntheticAppParams ap;
    ap.process_count = 3;
    ap.with_fixtures = false;
    std::vector<AppId> running;
    for (std::uint32_t wave = 0; wave < 8; ++wave) {
      const auto app =
          workload::make_synthetic_app(rng, ap, "w" + std::to_string(wave));
      manager.submit(std::make_shared<kpn::Application>(app));
      // Every second wave the oldest application finishes; its release
      // wakes any parked arrivals.
      if (wave % 2 == 1 && !running.empty()) {
        manager.submit_release(running.front());
        running.erase(running.begin());
      }
      for (const auto& outcome : manager.drain()) {
        if (outcome.status == runtime::AdmitStatus::Admitted) {
          running.push_back(outcome.app_id);
        }
      }
    }
    manager.reject_waiting();

    const runtime::AdmissionStats& stats = manager.stats();
    std::printf(
        "Churn scenario (policy %s): offered %llu, admitted %llu, rejected "
        "%llu, retries %llu, releases %llu;\n  %zu still running, %zu idle "
        "tiles available for power-down\n",
        manager.policy().name().c_str(),
        static_cast<unsigned long long>(stats.offered),
        static_cast<unsigned long long>(stats.admitted),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.releases),
        manager.running_count(), manager.state().idle_tile_count());
    std::printf(
        "Admission latency (mapper wall clock): mean %.0f us, p50 %.0f us, "
        "p90 %.0f us, p99 %.0f us over %zu requests\n\n",
        stats.mean_latency_us(), stats.latency_percentile_us(50),
        stats.latency_percentile_us(90), stats.latency_percentile_us(99),
        static_cast<std::size_t>(stats.latencies.count()));
  }

  // Restore proof: admitting and then releasing an application returns the
  // ResourceState to its exact pre-admit snapshot.
  {
    const auto platform = workload::make_paper_platform();
    runtime::RuntimeManager manager(
        platform, {.mapper = std::make_shared<core::SpatialMapper>()});
    const auto app = workload::make_hiperlan2_receiver();

    const core::ResourceState before = manager.state().snapshot();
    const auto admitted = manager.admit(app);
    const bool ok = admitted.status == runtime::AdmitStatus::Admitted;
    const bool changed = manager.state() != before;
    if (ok) manager.release(admitted.app_id);
    std::printf(
        "Restore proof (HIPERLAN/2 on the paper platform): admitted=%s, "
        "state changed on admit=%s, state restored on release=%s\n\n",
        ok ? "yes" : "no", changed ? "yes" : "NO (bug)",
        ok && manager.state() == before ? "yes" : "NO (bug)");
  }

  // Arrival burst, serial vs. concurrent: the same burst through the FIFO
  // manager and through a 4-worker pool fed by 4 client threads. The
  // concurrent path must win on throughput and lose nothing on
  // bookkeeping exactness.
  {
    const std::size_t burst_size = short_mode ? 16 : 64;
    const std::uint32_t workers = 4;
    Rng rng(4242);
    workload::SyntheticPlatformParams pp;
    pp.width = 6;
    pp.height = 6;
    pp.type_counts = {{"ARM", 16}, {"DSP", 16}};
    pp.process_slots = 4;
    const auto platform = workload::make_synthetic_platform(rng, pp, "burst");

    std::vector<std::shared_ptr<const kpn::Application>> apps;
    for (std::size_t i = 0; i < burst_size; ++i) {
      workload::SyntheticAppParams ap;
      ap.process_count = 3;
      ap.max_preferred_utilization = 0.25;
      ap.with_fixtures = false;
      apps.push_back(std::make_shared<kpn::Application>(
          workload::make_synthetic_app(rng, ap, "b" + std::to_string(i))));
    }

    const BurstFigures serial = run_serial_burst(platform, apps);
    const BurstFigures concurrent =
        run_concurrent_burst(platform, apps, workers, /*clients=*/4);

    std::printf(
        "Burst (%zu apps): serial %7.1f ms (%6.1f apps/s, p50 %.0f us, p95 "
        "%.0f us, p99 %.0f us), admitted %llu\n",
        apps.size(), serial.wall_ms, serial.throughput_per_s, serial.p50_us,
        serial.p95_us, serial.p99_us,
        static_cast<unsigned long long>(serial.admitted));
    std::printf(
        "          %u workers %7.1f ms (%6.1f apps/s, p50 %.0f us, p95 %.0f "
        "us, p99 %.0f us), admitted %llu, conflicts %llu (%llu at "
        "booking), %.2f attempts per request, %llu lease admits, %llu lease "
        "fallbacks\n",
        workers, concurrent.wall_ms, concurrent.throughput_per_s,
        concurrent.p50_us, concurrent.p95_us, concurrent.p99_us,
        static_cast<unsigned long long>(concurrent.admitted),
        static_cast<unsigned long long>(concurrent.conflicts),
        static_cast<unsigned long long>(concurrent.booking_conflicts),
        concurrent.attempts_per_request,
        static_cast<unsigned long long>(concurrent.lease_admits),
        static_cast<unsigned long long>(concurrent.lease_fallbacks));
    std::printf(
        "Verification engine: serial hit rate %.2f (%llu events saved), "
        "concurrent hit rate %.2f (%llu events saved)\n",
        serial.verify.hit_rate(),
        static_cast<unsigned long long>(serial.verify.events_saved),
        concurrent.verify.hit_rate(),
        static_cast<unsigned long long>(concurrent.verify.events_saved));
    const double speedup = concurrent.wall_ms > 0.0
                               ? serial.wall_ms / concurrent.wall_ms
                               : 0.0;
    const bool state_ok =
        serial.restore_ok && concurrent.replay_ok && concurrent.restore_ok;
    std::printf(
        "Speedup %.2fx (%s); residual-state check: replay=%s, restore=%s "
        "-> %s\n\n",
        speedup, speedup > 1.0 ? "concurrent wins" : "NO speedup",
        concurrent.replay_ok ? "identical" : "MISMATCH",
        concurrent.restore_ok && serial.restore_ok ? "identical" : "MISMATCH",
        state_ok ? "identical" : "MISMATCH");

    write_json(json_path, apps.size(), workers, serial, concurrent);
  }

  std::printf(
      "Reading: with identical hardware and applications, run-time mapping\n"
      "admits more applications than a worst-case static allocation, reuses\n"
      "capacity as applications stop, re-admits deferred arrivals after a\n"
      "release, and scales admission throughput with a worker pool while\n"
      "keeping the resource bookkeeping exact.\n");
  return 0;
}
