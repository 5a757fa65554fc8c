// Reproduces the implementation statistics of Section 4.5 — the paper runs
// the HIPERLAN/2 mapping in under 4 ms on an ARM926 at 100 MHz — and
// measures the step-4 verification engine on top of it: the full four-step
// mapping, steps 1-3 in isolation, and the dominant step-4 dataflow check
// cold (no cache) vs. warm (signature cache + warm-started sizing), plus
// the adaptive simulation window. Absolute numbers differ from the paper
// by the hardware gap; the claims that hold are the *shape* (the mapper is
// cheap enough to run at application start time) and the cold/warm ratio.
//
// The warm/cold section replays the HiperLAN/2 refinement scenario: the
// same receiver is admitted, released and re-admitted over and over — the
// steady state of a run-time manager under churn — so every re-admission
// re-verifies the same structural mapping.
//
// Flags: --short (CI smoke: fewer repetitions),
//        --json PATH (default BENCH_sec45.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/channel_routing.hpp"
#include "core/feasibility.hpp"
#include "core/implementation_selection.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "util/clock.hpp"
#include "verify/engine.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

struct PaperCase {
  kpn::Application app = workload::make_hiperlan2_receiver();
  arch::Platform platform = workload::make_paper_platform();
  core::MapperConfig config = workload::paper_mapper_config();
};

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

/// Times one call of @p body, microseconds.
template <typename F>
double time_us(F&& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return elapsed_us(start);
}

/// Step-4 runner over fresh state/mapping copies, mirroring what one
/// refinement round pays.
struct Step4Bench {
  const PaperCase& c;
  core::Mapping placed;  // placed + routed, buffers unset

  explicit Step4Bench(const PaperCase& paper_case, core::Mapping mapping)
      : c(paper_case), placed(std::move(mapping)) {}

  core::FeasibilityReport run(verify::Engine* engine) {
    core::ResourceState rs(c.platform);
    core::Mapping mapping = placed;
    core::FeedbackSet feedback;
    core::MappingTrace::Round round;
    core::MappingContext ctx{c.app,  c.platform,      rs,
                             feedback, c.config.energy, mapping,
                             round,  engine};
    return core::run_step4(ctx, c.config.step4);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_sec45.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const std::uint32_t reps = short_mode ? 20 : 100;

  std::printf("== sec4.5: mapper runtime & the step-4 engine =============\n\n");

  const PaperCase c;

  // -- full mapping and steps 1-3, as in the paper's 4 ms figure ---------
  std::vector<double> full_us;
  {
    core::MapperConfig cfg = c.config;
    cfg.cache_verification = false;  // the paper's mapper has no cache
    const core::SpatialMapper mapper(cfg);
    for (std::uint32_t r = 0; r < reps; ++r) {
      full_us.push_back(time_us([&] {
        const auto result = mapper.map(c.app, c.platform);
        if (!result.success) std::abort();
      }));
    }
  }
  std::vector<double> steps123_us;
  core::Mapping placed{0, 0};
  {
    core::MapperConfig no4 = c.config;
    no4.run_step4 = false;
    const core::SpatialMapper mapper(no4);
    auto result = mapper.map(c.app, c.platform);
    if (!result.success) std::abort();
    placed = std::move(result.mapping);
    for (std::uint32_t r = 0; r < reps; ++r) {
      steps123_us.push_back(time_us([&] {
        const auto res = mapper.map(c.app, c.platform);
        if (!res.success) std::abort();
      }));
    }
  }
  std::printf("Full mapping (uncached): median %7.0f us over %u reps\n",
              median(full_us), reps);
  std::printf("Steps 1-3 only:          median %7.0f us\n\n",
              median(steps123_us));

  // -- step 4 cold vs warm on the refinement scenario --------------------
  Step4Bench step4(c, placed);
  std::vector<double> cold_us;
  for (std::uint32_t r = 0; r < reps; ++r) {
    cold_us.push_back(time_us([&] {
      if (!step4.run(nullptr).feasible) std::abort();
    }));
  }
  // The cost of one cold verification in simulator work:
  verify::SizingKey key;
  key.target_period_ps =
      static_cast<std::uint64_t>(c.app.qos().symbol_period_ns) * 1000ull;
  key.capacity_limit = c.config.step4.capacity_limit;
  key.simulation = c.config.step4.simulation;
  const auto cold_outcome =
      verify::compute_verification(c.app, c.platform, placed, key);
  // Every warm hit still builds and compares this signature.
  const std::size_t signature_words =
      verify::MappingSignature::of(c.app, c.platform, placed, key)
          .word_count();

  verify::Engine engine;
  (void)step4.run(&engine);  // populate the cache (the first admission)
  std::vector<double> warm_us;
  for (std::uint32_t r = 0; r < reps; ++r) {
    warm_us.push_back(time_us([&] {
      if (!step4.run(&engine).feasible) std::abort();
    }));
  }
  const verify::EngineStats es = engine.stats();
  const double cold_median = median(cold_us);
  const double warm_median = median(warm_us);
  const double speedup = warm_median > 0.0 ? cold_median / warm_median : 0.0;
  // The simulator's per-firing cost: cold time over the firings it executed
  // one by one (the fast-forwarded ones cost nothing each).
  const std::uint64_t cold_executed =
      cold_outcome.events_simulated - cold_outcome.events_skipped;
  const double cold_ns_per_executed_event =
      cold_executed > 0 ? 1000.0 * cold_median /
                              static_cast<double>(cold_executed)
                        : 0.0;
  const double cold_events_per_simulation =
      cold_outcome.simulations > 0
          ? static_cast<double>(cold_outcome.events_simulated) /
                static_cast<double>(cold_outcome.simulations)
          : 0.0;
  std::printf(
      "Step 4, cold (no cache): median %7.0f us  (%llu simulations, %llu "
      "events per verification, %llu of them skipped by the periodic "
      "fast-forward)\n",
      cold_median, static_cast<unsigned long long>(cold_outcome.simulations),
      static_cast<unsigned long long>(cold_outcome.events_simulated),
      static_cast<unsigned long long>(cold_outcome.events_skipped));
  std::printf("Step 4, cold: %.1f ns per executed event, %.0f events per "
              "simulation\n",
              cold_ns_per_executed_event, cold_events_per_simulation);
  std::printf("Step 4, warm (cached):   median %7.0f us  (signature of %zu "
              "words)\n",
              warm_median, signature_words);
  std::printf(
      "Warm/cold speedup %.1fx; cache hit rate %.2f, events saved %llu\n\n",
      speedup, es.hit_rate(),
      static_cast<unsigned long long>(es.events_saved));

  // -- admission churn: the manager-level view of the same scenario ------
  double churn_cold_ms = 0.0;
  double churn_warm_ms = 0.0;
  std::string churn_stats_json;  // cached run's StatsReport::to_json()
  {
    const std::uint32_t waves = short_mode ? 8 : 24;
    auto churn = [&](bool cached) {
      core::MapperConfig cfg = c.config;
      cfg.cache_verification = cached;
      runtime::RuntimeManager manager(
          c.platform, {.mapper = std::make_shared<core::SpatialMapper>(cfg)});
      const auto start = std::chrono::steady_clock::now();
      for (std::uint32_t wave = 0; wave < waves; ++wave) {
        const auto outcome = manager.admit(c.app);
        if (outcome.status != runtime::AdmitStatus::Admitted) std::abort();
        manager.release(outcome.app_id);
      }
      const double ms = elapsed_us(start) / 1000.0;
      if (cached) churn_stats_json = manager.stats_report().to_json();
      return ms;
    };
    churn_cold_ms = churn(false);
    churn_warm_ms = churn(true);
    std::printf(
        "Admit/release churn (%u waves of the receiver): uncached %7.1f ms, "
        "cached %7.1f ms (%.1fx)\n\n",
        waves, churn_cold_ms, churn_warm_ms,
        churn_warm_ms > 0.0 ? churn_cold_ms / churn_warm_ms : 0.0);
  }

  // -- adaptive simulation window ----------------------------------------
  verify::SizingKey adaptive_key = key;
  adaptive_key.simulation.convergence_window = 3;
  adaptive_key.simulation.convergence_epsilon = 0.01;
  const auto adaptive_outcome =
      verify::compute_verification(c.app, c.platform, placed, adaptive_key);
  const double events_saved_pct =
      cold_outcome.events_simulated > 0
          ? 100.0 *
                (1.0 - static_cast<double>(adaptive_outcome.events_simulated) /
                           static_cast<double>(cold_outcome.events_simulated))
          : 0.0;
  std::printf(
      "Adaptive window (eps 1%%, K=3): %llu events vs %llu fixed "
      "(%.0f%% saved), period %llu ps vs %llu ps\n\n",
      static_cast<unsigned long long>(adaptive_outcome.events_simulated),
      static_cast<unsigned long long>(cold_outcome.events_simulated),
      events_saved_pct,
      static_cast<unsigned long long>(adaptive_outcome.achieved_period_ps),
      static_cast<unsigned long long>(cold_outcome.achieved_period_ps));

  // -- larger synthetic instance, full mapping ---------------------------
  {
    Rng rng(7);
    workload::SyntheticPlatformParams pp;
    const auto platform = workload::make_synthetic_platform(rng, pp, "p");
    workload::SyntheticAppParams ap;
    ap.process_count = 8;
    const auto app = workload::make_synthetic_app(rng, ap, "a");
    const core::SpatialMapper mapper;
    std::vector<double> us;
    for (std::uint32_t r = 0; r < std::max<std::uint32_t>(reps / 4, 5); ++r) {
      us.push_back(time_us([&] {
        const auto result = mapper.map(app, platform);
        (void)result.success;
      }));
    }
    std::printf(
        "Synthetic 8-process app on a 4x4 mesh (cached): median %7.0f us\n\n",
        median(us));
  }

  // -- JSON for the CI perf trail ----------------------------------------
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sec45_mapper_runtime\",\n");
  std::fprintf(f, "  \"reps\": %u,\n", reps);
  std::fprintf(f, "  \"full_mapping_us_median\": %.1f,\n", median(full_us));
  std::fprintf(f, "  \"steps123_us_median\": %.1f,\n", median(steps123_us));
  std::fprintf(f,
               "  \"step4\": {\"cold_us_median\": %.1f, \"warm_us_median\": "
               "%.1f, \"speedup\": %.2f, \"cold_simulations\": %llu, "
               "\"cold_events\": %llu, \"cold_events_skipped\": %llu, "
               "\"cold_ns_per_executed_event\": %.2f, "
               "\"cold_events_per_simulation\": %.1f, "
               "\"cache_hit_rate\": %.4f, \"events_saved\": %llu, "
               "\"warm_signature_words\": %zu},\n",
               cold_median, warm_median, speedup,
               static_cast<unsigned long long>(cold_outcome.simulations),
               static_cast<unsigned long long>(cold_outcome.events_simulated),
               static_cast<unsigned long long>(cold_outcome.events_skipped),
               cold_ns_per_executed_event, cold_events_per_simulation,
               es.hit_rate(),
               static_cast<unsigned long long>(es.events_saved),
               signature_words);
  std::fprintf(f,
               "  \"adaptive_window\": {\"fixed_events\": %llu, "
               "\"adaptive_events\": %llu, \"events_saved_pct\": %.1f, "
               "\"fixed_period_ps\": %llu, \"adaptive_period_ps\": %llu},\n",
               static_cast<unsigned long long>(cold_outcome.events_simulated),
               static_cast<unsigned long long>(
                   adaptive_outcome.events_simulated),
               events_saved_pct,
               static_cast<unsigned long long>(cold_outcome.achieved_period_ps),
               static_cast<unsigned long long>(
                   adaptive_outcome.achieved_period_ps));
  std::fprintf(f,
               "  \"admission_churn\": {\"uncached_ms\": %.2f, "
               "\"cached_ms\": %.2f, \"speedup\": %.2f, "
               "\"stats_report\": %s}\n}\n",
               churn_cold_ms, churn_warm_ms,
               churn_warm_ms > 0.0 ? churn_cold_ms / churn_warm_ms : 0.0,
               churn_stats_json.c_str());
  std::fclose(f);
  std::printf("Wrote %s\n", json_path.c_str());

  std::printf(
      "Reading: the combinatorial part of the mapper (steps 1-3) is cheap;\n"
      "step 4's dataflow verification dominates. The verification engine\n"
      "serves repeated structural mappings from its cache, so steady-state\n"
      "admission churn pays near-zero verification cost, and the adaptive\n"
      "window bounds the simulated events when a cold verification is\n"
      "unavoidable.\n");
  return 0;
}
