// Golden cache behaviour: a seeded churn of HIPERLAN/2 modes and synthetic
// applications through two serial managers that share one ShapeLibrary and
// one verify::Engine. Both caches are bounded tightly so the run exercises
// every path — hits, misses, learn inserts and duplicates, LRU evictions,
// hot evictions. Key hashes only pick buckets, so the counts must not
// depend on them: a serializer or hash change that alters any lookup,
// equality or eviction decision changes at least one of them.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "runtime/runtime_manager.hpp"
#include "shapes/library.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace rtsm {
namespace {

/// 6x6 mesh of interleaved hex-slot ARM and single-context MONTIUM tiles
/// with the IO tiles the HIPERLAN/2 fixtures pin to.
arch::Platform churn_platform() {
  arch::Platform p("golden churn 6x6", 6, 6);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("A/D", io, 0, 2, 64 * 1024, /*process_slots=*/8);
  p.add_tile("Sink", io, 5, 3, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 6; ++y) {
    for (std::uint32_t x = 0; x < 6; ++x) {
      if ((x == 0 && y == 2) || (x == 5 && y == 3)) continue;
      if ((x + y) % 2 == 0 && arms < 10) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024, 6);
      } else if (montiums < 10) {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, 1);
      }
    }
  }
  return p;
}

/// Every HIPERLAN/2 mode plus six seeded synthetic ARM chains.
std::vector<kpn::Application> churn_pool() {
  std::vector<kpn::Application> pool;
  for (const workload::ModeInfo& mode : workload::kHiperlan2Modes) {
    pool.push_back(workload::hiperlan2_mode_variant(mode.mode));
  }
  Rng rng(4242);
  for (std::uint32_t i = 0; i < 6; ++i) {
    workload::SyntheticAppParams params;
    params.process_count = 2 + i % 4;
    params.with_fixtures = false;
    params.tile_types = {"ARM"};
    params.max_preferred_utilization = 0.3;
    pool.push_back(workload::make_synthetic_app(
        rng, params, "golden-" + std::to_string(i)));
  }
  return pool;
}

TEST(CacheGolden, SeededChurnReproducesEveryCacheCount) {
  const arch::Platform platform = churn_platform();
  const std::vector<kpn::Application> pool = churn_pool();

  auto engine = std::make_shared<verify::Engine>(
      verify::EngineOptions{.max_entries = 12});
  auto shapes = std::make_shared<shapes::ShapeLibrary>(
      platform, shapes::ShapeLibraryOptions{.max_shapes = 6,
                                            .max_shapes_per_skeleton = 2});
  core::MapperConfig config;
  config.engine = engine;
  const auto mapper = std::make_shared<core::SpatialMapper>(config);

  std::vector<std::unique_ptr<runtime::RuntimeManager>> managers;
  for (int i = 0; i < 2; ++i) {
    managers.push_back(std::make_unique<runtime::RuntimeManager>(
        platform, runtime::ManagerOptions{.mapper = mapper, .shapes = shapes}));
  }

  Rng rng(9001);
  std::uint64_t admitted = 0;
  for (int step = 0; step < 400; ++step) {
    runtime::RuntimeManager& m = *managers[rng.pick_index(managers.size())];
    const std::vector<AppId> running = m.running_ids();
    if (!running.empty() && rng.bernoulli(0.45)) {
      EXPECT_TRUE(m.release(running[rng.pick_index(running.size())]));
      continue;
    }
    const runtime::AdmitOutcome outcome =
        m.admit(pool[rng.pick_index(pool.size())]);
    if (outcome.status != runtime::AdmitStatus::Admitted) continue;
    ++admitted;
    // Re-learning a miss-path placement must be recognised as a duplicate
    // by exact word comparison.
    if (!outcome.shape_hit) {
      EXPECT_TRUE(shapes->learn(*m.app_of(outcome.app_id), outcome.mapping)
                      .duplicate);
    }
  }

  const shapes::ShapeLibraryStats lib = shapes->stats();
  const verify::EngineStats ver = engine->stats();
  EXPECT_EQ(admitted, 180u);
  EXPECT_EQ(lib.lookups, 226u);
  EXPECT_EQ(lib.hits, 68u);
  EXPECT_EQ(lib.misses, 158u);
  EXPECT_EQ(lib.inserts, 112u);
  EXPECT_EQ(lib.duplicates, 112u);
  EXPECT_EQ(lib.evictions, 106u);
  EXPECT_EQ(lib.anchor_probes, 405u);
  EXPECT_EQ(ver.lookups, 112u);
  EXPECT_EQ(ver.hits, 17u);
  EXPECT_EQ(ver.misses, 95u);
  EXPECT_EQ(ver.evictions, 83u);
  EXPECT_EQ(ver.evicted_while_hot, 11u);
  EXPECT_EQ(ver.warm_started, 77u);
}

}  // namespace
}  // namespace rtsm
