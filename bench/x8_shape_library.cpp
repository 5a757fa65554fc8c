// Extension bench X8: relocatable mapping-shape library.
//
// Streaming platforms see the same handful of application skeletons over
// and over (modes of a receiver, instances of a filter bank). The shape
// library exploits that: a successful full-mapper admission is
// canonicalized into a translation/rotation/reflection-invariant shape,
// and a later structurally identical arrival is admitted by re-anchoring
// the learned shape onto the live mesh — a geometric probe instead of the
// four-step mapper.
//
// This bench replays the same seeded churn schedule — arrivals drawn from
// a fixed pool of 8 skeletons with 3-8 wave lifetimes, X6-style — through
// the serial RuntimeManager with the shape library off and on, and
// compares steady-state (warm-library) admission latency, hit rate and
// anchor-probe cost. The first quarter of the waves is the cold warm-up
// phase; figures are reported per phase.
//
// Exactness oracle (per wave, both configurations): replaying the
// surviving admissions onto a fresh ResourceState must reproduce the
// manager's live state — a shape-path commit books exactly what a mapper
// commit would.
//
// Results are emitted as BENCH_x8.json for the CI perf trail. CI gates on
// oracle == "identical", warm_admit_speedup >= 5 and hit_rate_warm >= 0.7.
//
// Flags: --short (CI smoke: fewer waves),
//        --json PATH (default BENCH_x8.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "shapes/library.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

/// The X6 churn platform: 6x6 mesh, 10 hex-slot ARM tiles and 10
/// single-context MONTIUM tiles interleaved, IO tiles named as the
/// HIPERLAN/2 fixtures expect.
arch::Platform make_x8_platform() {
  arch::NocParams noc;
  arch::Platform p("x8 shapes 6x6", 6, 6, noc);
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

/// The fixed skeleton pool: 7 seeded synthetic ARM chains of varying size
/// plus one HIPERLAN/2 mode (pinned fixtures — its anchors collapse to at
/// most one per symmetry). Arrivals repeat these skeletons, which is
/// exactly the recurrence the shape library converts into hits.
std::vector<std::shared_ptr<const kpn::Application>> make_pool(
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::shared_ptr<const kpn::Application>> pool;
  for (std::uint32_t i = 0; i < 7; ++i) {
    workload::SyntheticAppParams params;
    params.process_count = 2 + i % 3;
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

struct ShapeFigures {
  std::string label;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double median_cold_us = 0.0;  ///< Median admit latency, warm-up phase.
  double median_warm_us = 0.0;  ///< Median admit latency, steady state.
  double p95_us = 0.0;
  // Shape-library columns (zero when the library is off).
  double hit_rate_warm = 0.0;
  double hit_rate_total = 0.0;
  double anchor_probes_per_hit = 0.0;
  double miss_median_warm_us = 0.0;  ///< Steady-state miss-path latency.
  std::uint64_t shape_inserts = 0;
  std::uint64_t shape_evictions = 0;
  bool oracle_ok = true;
  /// Full StatsReport::to_json() of the run, embedded in BENCH_x8.json.
  std::string stats_json;
};

ShapeFigures run_churn(
    const arch::Platform& platform,
    const std::vector<std::shared_ptr<const kpn::Application>>& pool,
    const std::vector<Arrival>& schedule, std::uint32_t waves,
    std::uint32_t warmup_waves, bool with_shapes, std::string label) {
  auto shapes =
      with_shapes ? std::make_shared<shapes::ShapeLibrary>(platform) : nullptr;
  runtime::RuntimeManager manager(
      platform,
      {.mapper = std::make_shared<core::SpatialMapper>(), .shapes = shapes});

  ShapeFigures figures;
  figures.label = std::move(label);
  struct Live {
    AppId id;
    std::uint32_t release_wave = 0;
  };
  std::vector<Live> live;
  std::vector<double> cold_lat;
  std::vector<double> warm_lat;
  std::vector<double> warm_miss_lat;
  std::uint64_t hits_at_warmup = 0;
  std::uint64_t misses_at_warmup = 0;

  std::size_t next = 0;
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    if (wave == warmup_waves) {
      const runtime::AdmissionStats at = manager.stats();
      hits_at_warmup = at.shape_hits;
      misses_at_warmup = at.shape_misses;
    }
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
        (wave < warmup_waves ? cold_lat : warm_lat)
            .push_back(outcome.mapping_us);
        if (wave >= warmup_waves && !outcome.shape_hit) {
          warm_miss_lat.push_back(outcome.mapping_us);
        }
      }
    }
    manager.drain();

    // Per-wave serial-replay oracle: the live bookkeeping equals a replay
    // of the surviving admissions — shape-path commits included — onto a
    // fresh state.
    core::ResourceState replayed(platform);
    for (const AppId id : manager.running_ids()) {
      core::commit_mapping(replayed, *manager.app_of(id),
                           manager.mapping_of(id));
    }
    if (!manager.state().approx_equals(replayed)) figures.oracle_ok = false;
  }

  const runtime::AdmissionStats stats = manager.stats();
  figures.offered = stats.offered;
  figures.admitted = stats.admitted;
  figures.rejected = stats.rejected;
  figures.median_cold_us = median(cold_lat);
  figures.median_warm_us = median(warm_lat);
  figures.p95_us = stats.latency_percentile_us(95);
  if (with_shapes) {
    const std::uint64_t warm_hits = stats.shape_hits - hits_at_warmup;
    const std::uint64_t warm_misses = stats.shape_misses - misses_at_warmup;
    figures.hit_rate_warm =
        warm_hits + warm_misses == 0
            ? 0.0
            : static_cast<double>(warm_hits) /
                  static_cast<double>(warm_hits + warm_misses);
    figures.hit_rate_total =
        stats.shape_hits + stats.shape_misses == 0
            ? 0.0
            : static_cast<double>(stats.shape_hits) /
                  static_cast<double>(stats.shape_hits + stats.shape_misses);
    figures.anchor_probes_per_hit =
        manager.shape_stats().anchor_probes_per_hit();
    figures.miss_median_warm_us = median(warm_miss_lat);
    figures.shape_inserts = stats.shape_inserts;
    figures.shape_evictions = stats.shape_evictions;
  }
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

/// Cost of the key every library lookup builds first: the median over the
/// pool of the mean SkeletonKey::of time per skeleton, and the median
/// word count.
struct KeyFigures {
  double median_us = 0.0;
  double median_words = 0.0;
};

KeyFigures time_skeleton_keys(
    const std::vector<std::shared_ptr<const kpn::Application>>& pool,
    std::uint32_t reps) {
  std::vector<double> per_app_us;
  std::vector<double> words;
  for (const auto& app : pool) {
    std::size_t total_words = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < reps; ++r) {
      total_words += shapes::SkeletonKey::of(*app).words.size();
    }
    per_app_us.push_back(elapsed_us(start) / reps);
    words.push_back(static_cast<double>(total_words / reps));
  }
  return {median(per_app_us), median(words)};
}

void print_row(io::TablePrinter& table, const ShapeFigures& f) {
  table.add_row({f.label, std::to_string(f.offered),
                 std::to_string(f.admitted),
                 rtsm::format_double(f.median_cold_us, 1),
                 rtsm::format_double(f.median_warm_us, 1),
                 rtsm::format_double(100.0 * f.hit_rate_warm, 1) + "%",
                 rtsm::format_double(f.anchor_probes_per_hit, 1),
                 rtsm::format_double(f.miss_median_warm_us, 1),
                 f.oracle_ok ? "ok" : "MISMATCH"});
}

void write_json(const std::string& path, std::uint32_t waves,
                std::uint32_t warmup_waves, const ShapeFigures& off,
                const ShapeFigures& on, const KeyFigures& keys) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto one = [&](const char* name, const ShapeFigures& c) {
    std::fprintf(
        f,
        "  \"%s\": {\"offered\": %llu, \"admitted\": %llu, "
        "\"rejected\": %llu, \"median_cold_us\": %.2f, "
        "\"median_warm_us\": %.2f, \"p95_us\": %.1f, "
        "\"hit_rate_warm\": %.4f, \"hit_rate_total\": %.4f, "
        "\"anchor_probes_per_hit\": %.2f, \"miss_median_warm_us\": %.2f, "
        "\"shape_inserts\": %llu, \"shape_evictions\": %llu, "
        "\"oracle_ok\": %s",
        name, static_cast<unsigned long long>(c.offered),
        static_cast<unsigned long long>(c.admitted),
        static_cast<unsigned long long>(c.rejected), c.median_cold_us,
        c.median_warm_us, c.p95_us, c.hit_rate_warm, c.hit_rate_total,
        c.anchor_probes_per_hit, c.miss_median_warm_us,
        static_cast<unsigned long long>(c.shape_inserts),
        static_cast<unsigned long long>(c.shape_evictions),
        c.oracle_ok ? "true" : "false");
    std::fprintf(f, ", \"stats_report\": %s}", c.stats_json.c_str());
  };
  const double speedup = on.median_warm_us > 0.0
                             ? off.median_warm_us / on.median_warm_us
                             : 0.0;
  std::fprintf(f, "{\n  \"bench\": \"x8_shape_library\",\n");
  std::fprintf(f, "  \"waves\": %u,\n  \"warmup_waves\": %u,\n", waves,
               warmup_waves);
  one("shapes_off", off);
  std::fprintf(f, ",\n");
  one("shapes_on", on);
  std::fprintf(f,
               ",\n  \"warm_admit_speedup\": %.2f,\n"
               "  \"hit_rate_warm\": %.4f,\n"
               "  \"skeleton_key_us_median\": %.3f,\n"
               "  \"skeleton_key_words_median\": %.0f,\n"
               "  \"oracle\": \"%s\"\n}\n",
               speedup, on.hit_rate_warm, keys.median_us, keys.median_words,
               off.oracle_ok && on.oracle_ok ? "identical" : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x8.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== X8: shape-library admission, off vs. on ===============\n\n");

  const std::uint32_t waves = short_mode ? 32 : 96;
  const std::uint32_t warmup_waves = waves / 4;
  const std::uint32_t per_wave = 4;
  const auto platform = make_x8_platform();
  const auto pool = make_pool(/*seed=*/20080311);
  const auto schedule =
      make_schedule(waves, per_wave, pool.size(), /*seed=*/20080312);

  const ShapeFigures f_off = run_churn(platform, pool, schedule, waves,
                                       warmup_waves, false, "shapes off");
  const ShapeFigures f_on = run_churn(platform, pool, schedule, waves,
                                      warmup_waves, true, "shapes on");

  io::TablePrinter table({"Config", "Offered", "Admitted", "Cold med us",
                          "Warm med us", "Warm hit rate", "Probes/hit",
                          "Miss med us", "Oracle"});
  for (std::size_t c = 1; c < 9; ++c) table.align_right(c);
  print_row(table, f_off);
  print_row(table, f_on);
  std::printf("%s\n", table.to_string().c_str());

  const double speedup = f_on.median_warm_us > 0.0
                             ? f_off.median_warm_us / f_on.median_warm_us
                             : 0.0;
  std::printf(
      "Steady-state median admit latency: %.1f us -> %.1f us (%.1fx), "
      "warm hit rate %.1f%%\n\n",
      f_off.median_warm_us, f_on.median_warm_us, speedup,
      100.0 * f_on.hit_rate_warm);

  const KeyFigures keys = time_skeleton_keys(pool, short_mode ? 200 : 2000);
  std::printf("SkeletonKey::of over the pool: median %.2f us, median %.0f "
              "words\n\n",
              keys.median_us, keys.median_words);

  write_json(json_path, waves, warmup_waves, f_off, f_on, keys);

  std::printf(
      "\nReading: once the library has learned the pool's skeletons, a\n"
      "recurring arrival is admitted by re-anchoring a canonical shape —\n"
      "a geometric fit probe — instead of running mapping steps 1-4; the\n"
      "miss path (first sighting of a skeleton, or no anchor fits) still\n"
      "pays full mapper latency, and every commit stays replay-exact.\n");
  return 0;
}
