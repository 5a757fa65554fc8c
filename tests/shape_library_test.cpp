#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "arch/transform.hpp"
#include "booking_probe.hpp"
#include "core/resource_state.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/runtime_manager.hpp"
#include "shapes/library.hpp"
#include "shapes/shape.hpp"
#include "test_helpers.hpp"
#include "verify/expansion_cache.hpp"

namespace rtsm::shapes {
namespace {

std::shared_ptr<const core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

/// w x h mesh of identical "PE" tiles — fully symmetric, so every D4
/// element is a valid re-anchoring.
arch::Platform pe_mesh(std::uint32_t w, std::uint32_t h,
                       std::uint32_t slots = 1) {
  arch::Platform p("pe " + std::to_string(w) + "x" + std::to_string(h), w, h);
  const TileTypeId pe = p.add_tile_type("PE", 200'000'000);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      p.add_tile("PE" + std::to_string(x) + "_" + std::to_string(y), pe, x, y,
                 64 * 1024, slots);
    }
  }
  return p;
}

/// Unpinned chain app whose every stage targets "PE".
kpn::Application pe_chain(std::uint32_t stages, const std::string& name,
                          std::uint32_t wcet_cc = 200) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app(name, qos);
  std::vector<ProcessId> procs;
  for (std::uint32_t i = 0; i < stages; ++i) {
    std::string name = "S";
    name += std::to_string(i);
    procs.push_back(app.add_process(name));
  }
  std::vector<ChannelId> chain;
  for (std::uint32_t i = 0; i + 1 < stages; ++i) {
    chain.push_back(app.connect(procs[i], procs[i + 1], 16));
  }
  for (const ProcessId pid : procs) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@PE";
    im.tile_type = "PE";
    im.wcet_cc = {wcet_cc};
    for (const ChannelId cid : app.in_channels(pid)) {
      im.inputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
    }
    for (const ChannelId cid : app.out_channels(pid)) {
      im.outputs.push_back({cid, {app.channel(cid).tokens_per_symbol}});
    }
    im.energy_nj_per_symbol = 100.0;
    im.memory_bytes = 4 * 1024;
    app.add_implementation(pid, std::move(im));
  }
  app.validate();
  return app;
}

// The tentpole property: canonicalize -> transform -> instantiate ->
// re-canonicalize round-trips bit-identically for every mesh symmetry and
// every in-bounds translation.
TEST(ShapeCanonicalForm, RoundTripsAllSymmetriesAndTranslations) {
  const auto platform = pe_mesh(5, 4);
  const auto app = pe_chain(4, "roundtrip");
  const auto result = paper_mapper()->map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;

  const CanonicalShape canon = canonicalize(app, platform, result.mapping);
  ASSERT_FALSE(canon.words.empty());
  const MeshIndex index(platform);

  int symmetries_exercised = 0;
  int instantiations = 0;
  for (const arch::MeshSymmetry sym : arch::kAllMeshSymmetries) {
    const arch::Coord ext = arch::transformed_extent(sym, canon.extent);
    if (ext.x > platform.mesh_width() || ext.y > platform.mesh_height()) {
      continue;
    }
    ++symmetries_exercised;
    for (std::uint32_t dy = 0; dy + ext.y <= platform.mesh_height(); ++dy) {
      for (std::uint32_t dx = 0; dx + ext.x <= platform.mesh_width(); ++dx) {
        const arch::MeshTransform t{sym, dx, dy};
        const auto mapping = materialize(canon, app, index, t);
        ASSERT_TRUE(mapping.has_value())
            << "symmetry " << static_cast<int>(sym) << " at +" << dx << ",+"
            << dy;
        ASSERT_TRUE(mapping->all_assigned());
        ASSERT_TRUE(mapping->all_routed());
        const CanonicalShape back = canonicalize(app, platform, *mapping);
        EXPECT_EQ(back.words, canon.words)
            << "canonical form not invariant under symmetry "
            << static_cast<int>(sym) << " at +" << dx << ",+" << dy;
        EXPECT_EQ(back.hash, canon.hash);
        ++instantiations;
      }
    }
  }
  // A 5x4 mesh admits both orientations of any shape that fits at all.
  EXPECT_EQ(symmetries_exercised, 8);
  EXPECT_GT(instantiations, 8);
}

// Tile kinds break mesh symmetry: an anchor that would land a DSP-only
// process on an ARM tile must be rejected by materialize().
TEST(ShapeCanonicalForm, HeterogeneousTileKindRejectsAnchor) {
  arch::Platform platform("het 3x1", 3, 1);
  const TileTypeId arm = platform.add_tile_type("ARM", 200'000'000);
  const TileTypeId dsp = platform.add_tile_type("DSP", 200'000'000);
  platform.add_tile("ARM0", arm, 0, 0);
  platform.add_tile("DSP0", dsp, 1, 0);
  platform.add_tile("ARM1", arm, 2, 0);

  // P0 on ARM feeding P1 on DSP.
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app("het", qos);
  const ProcessId p0 = app.add_process("P0");
  const ProcessId p1 = app.add_process("P1");
  const ChannelId ch = app.connect(p0, p1, 16);
  kpn::Implementation ia;
  ia.name = "P0@ARM";
  ia.tile_type = "ARM";
  ia.wcet_cc = {200};
  ia.outputs = {{ch, {16}}};
  ia.memory_bytes = 1024;
  app.add_implementation(p0, std::move(ia));
  kpn::Implementation id;
  id.name = "P1@DSP";
  id.tile_type = "DSP";
  id.wcet_cc = {200};
  id.inputs = {{ch, {16}}};
  id.memory_bytes = 1024;
  app.add_implementation(p1, std::move(id));
  app.validate();

  const auto result = paper_mapper()->map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;
  const CanonicalShape canon = canonicalize(app, platform, result.mapping);
  const MeshIndex index(platform);
  const TileId dsp_tile = index.tile_by_name("DSP0");

  int accepted = 0;
  int rejected = 0;
  for (const arch::MeshSymmetry sym : arch::kAllMeshSymmetries) {
    const arch::Coord ext = arch::transformed_extent(sym, canon.extent);
    if (ext.x > 3 || ext.y > 1) continue;
    for (std::uint32_t dx = 0; dx + ext.x <= 3; ++dx) {
      const auto mapping =
          materialize(canon, app, index, {sym, dx, 0});
      if (!mapping.has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      // Every accepted anchor must have put the DSP process on the one
      // DSP tile.
      EXPECT_EQ(mapping->tile_of(p1), dsp_tile);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0) << "no anchor was screened by tile kind";

  // The library finds one of the valid anchors even on the skewed mesh.
  ShapeLibrary lib(platform);
  EXPECT_TRUE(lib.learn(app, result).inserted);
  core::ResourceState empty(platform);
  const ShapeLookup hit = lib.try_instantiate(app, empty);
  ASSERT_TRUE(hit.plan.has_value());
  EXPECT_EQ(hit.plan->mapping.tile_of(p1), dsp_tile);
}

TEST(ShapeLibrary, LearnHitDuplicateAndStats) {
  const auto platform = pe_mesh(4, 4);
  const auto app = pe_chain(3, "lib");
  const auto result = paper_mapper()->map(app, platform);
  ASSERT_TRUE(result.success) << result.failure;

  ShapeLibrary lib(platform);
  const LearnResult first = lib.learn(app, result);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(lib.size(), 1u);

  // The same placement canonicalizes to the same shape: duplicate.
  const LearnResult again = lib.learn(app, result);
  EXPECT_FALSE(again.inserted);
  EXPECT_TRUE(again.duplicate);
  EXPECT_EQ(lib.size(), 1u);

  // Hit on an empty mesh, with the step-4 outcome transferred verbatim.
  core::ResourceState empty(platform);
  const ShapeLookup hit = lib.try_instantiate(app, empty);
  ASSERT_TRUE(hit.plan.has_value());
  EXPECT_TRUE(hit.plan->success);
  EXPECT_GT(hit.anchor_probes, 0u);
  EXPECT_DOUBLE_EQ(hit.plan->energy_nj_per_symbol,
                   result.energy_nj_per_symbol);
  EXPECT_EQ(hit.plan->achieved_period_ps, result.achieved_period_ps);
  EXPECT_EQ(hit.plan->latency_ps, result.latency_ps);

  // Miss when every tile is saturated.
  core::ResourceState full(platform);
  for (const TileId tid : platform.tile_ids()) full.saturate_tile(tid);
  const ShapeLookup miss = lib.try_instantiate(app, full);
  EXPECT_FALSE(miss.plan.has_value());

  const ShapeLibraryStats stats = lib.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_GT(stats.anchor_probes_per_hit(), 0.0);
}

TEST(ShapeLibrary, BoundedLruEviction) {
  const auto platform = pe_mesh(4, 4);
  ShapeLibraryOptions opts;
  opts.max_shapes = 1;
  opts.max_shapes_per_skeleton = 1;
  ShapeLibrary lib(platform, opts);

  // Two different skeletons (different chain lengths).
  const auto a = pe_chain(2, "a");
  const auto b = pe_chain(3, "b");
  const auto ra = paper_mapper()->map(a, platform);
  const auto rb = paper_mapper()->map(b, platform);
  ASSERT_TRUE(ra.success && rb.success);

  EXPECT_TRUE(lib.learn(a, ra).inserted);
  EXPECT_EQ(lib.size(), 1u);
  const LearnResult lb = lib.learn(b, rb);
  EXPECT_TRUE(lb.inserted);
  EXPECT_EQ(lb.evictions, 1u);
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_EQ(lib.stats().evictions, 1u);

  // a was evicted, b is resident.
  core::ResourceState empty(platform);
  EXPECT_FALSE(lib.try_instantiate(a, empty).plan.has_value());
  EXPECT_TRUE(lib.try_instantiate(b, empty).plan.has_value());
}

TEST(ShapeLibrary, SkeletonKeyIgnoresNamesButNotStructure) {
  const auto same1 = pe_chain(3, "instance-one");
  const auto same2 = pe_chain(3, "instance-two");
  const auto other = pe_chain(3, "slower", /*wcet_cc=*/400);
  EXPECT_EQ(SkeletonKey::of(same1), SkeletonKey::of(same2));
  EXPECT_FALSE(SkeletonKey::of(same1) == SkeletonKey::of(other));

  // The names the key does keep — fixture pins and tile types — count
  // in full, also past their first eight bytes.
  const auto pinned = [](const std::string& tile, const std::string& type) {
    kpn::Application app("pinned", kpn::QosConstraints{});
    const ProcessId io = app.add_fixture("io", tile);
    kpn::Implementation im;
    im.name = "io";
    im.tile_type = type;
    im.wcet_cc = {100};
    app.add_implementation(io, std::move(im));
    return app;
  };
  const auto base = SkeletonKey::of(pinned("IO-tile-north-1", "IO-type-a"));
  EXPECT_EQ(base, SkeletonKey::of(pinned("IO-tile-north-1", "IO-type-a")));
  EXPECT_FALSE(base == SkeletonKey::of(pinned("IO-tile-north-2", "IO-type-a")));
  EXPECT_FALSE(base == SkeletonKey::of(pinned("IO-tile-north-1", "IO-type-b")));
}

TEST(RuntimeManagerShapes, MissLearnsThenHitTransfersOutcome) {
  const auto platform = pe_mesh(4, 4);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  runtime::RuntimeManager manager(platform,
                                  {.mapper = paper_mapper(), .shapes = shapes});
  const auto app = pe_chain(3, "serial");

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted)
      << first.mapping.failure;
  EXPECT_FALSE(first.shape_hit);
  manager.release(first.app_id);

  const auto second = manager.admit(app);
  ASSERT_EQ(second.status, runtime::AdmitStatus::Admitted)
      << second.mapping.failure;
  EXPECT_TRUE(second.shape_hit);
  // The transferred step-4 outcome matches the learned admission's.
  EXPECT_DOUBLE_EQ(second.mapping.energy_nj_per_symbol,
                   first.mapping.energy_nj_per_symbol);
  EXPECT_EQ(second.mapping.achieved_period_ps,
            first.mapping.achieved_period_ps);
  EXPECT_EQ(second.mapping.latency_ps, first.mapping.latency_ps);

  const runtime::AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.shape_misses, 1u);
  EXPECT_EQ(stats.shape_hits, 1u);
  EXPECT_EQ(stats.shape_inserts, 1u);
  EXPECT_GT(stats.shape_anchor_probes, 0u);
  EXPECT_EQ(manager.shape_stats().hits, 1u);

  // Replay oracle: the full mapper on the same (empty-again) state agrees
  // with the shape path's verdict.
  manager.release(second.app_id);
  const auto replay = paper_mapper()->map(app, platform);
  EXPECT_TRUE(replay.success);
}

TEST(RuntimeManagerShapes, TranslatedHitAvoidsOccupiedTiles) {
  // Single-slot tiles: the second instance cannot reuse the first one's
  // tiles, so the hit must re-anchor the shape elsewhere.
  const auto platform = pe_mesh(4, 4, /*slots=*/1);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  runtime::RuntimeManager manager(platform,
                                  {.mapper = paper_mapper(), .shapes = shapes});
  const auto app = pe_chain(2, "translated");

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted);
  const auto second = manager.admit(app);
  ASSERT_EQ(second.status, runtime::AdmitStatus::Admitted);
  EXPECT_TRUE(second.shape_hit);
  for (const ProcessId pid : {app.process_by_name("S0"),
                              app.process_by_name("S1")}) {
    EXPECT_NE(first.mapping.mapping.tile_of(pid),
              second.mapping.mapping.tile_of(pid));
  }
}

TEST(RuntimeManagerShapes, PinnedFixturesCollapseAnchors) {
  const auto platform =
      test::small_platform(200'000'000, 200'000'000, 64 * 1024, /*io_slots=*/4);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  runtime::RuntimeManager manager(platform,
                                  {.mapper = paper_mapper(), .shapes = shapes});
  test::PipelineSpec spec;
  spec.stages = 1;
  spec.little_wcet_cc = 0;
  const auto app = test::pipeline_app(spec);

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted);
  manager.release(first.app_id);
  const auto second = manager.admit(app);
  ASSERT_EQ(second.status, runtime::AdmitStatus::Admitted);
  EXPECT_TRUE(second.shape_hit);
  // SRC/DST pins fix the translation: at most one anchor per symmetry.
  EXPECT_LE(manager.stats().shape_anchor_probes, 8u);
}

TEST(RuntimeManagerShapes, DefragAndModeSwitchBypassTheLibrary) {
  const auto platform = pe_mesh(4, 4);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  runtime::RuntimeManager manager(platform,
                                  {.mapper = paper_mapper(), .shapes = shapes});
  const auto app = pe_chain(3, "bypass");

  const auto a = manager.admit(app);
  const auto b = manager.admit(app);
  ASSERT_EQ(a.status, runtime::AdmitStatus::Admitted);
  ASSERT_EQ(b.status, runtime::AdmitStatus::Admitted);
  const ShapeLibraryStats before = shapes->stats();

  // A defrag pass re-plans position-constrained: it must not consult (or
  // grow) the library.
  manager.release(a.app_id);
  (void)manager.defrag_now();
  EXPECT_EQ(shapes->stats().lookups, before.lookups);

  // A mode switch replans in place: same contract.
  const auto next = pe_chain(3, "bypass-mode2", /*wcet_cc=*/150);
  const auto sw = manager.switch_mode(b.app_id,
                                      std::make_shared<kpn::Application>(next));
  EXPECT_EQ(shapes->stats().lookups, before.lookups);
  (void)sw;

  // Shapes stay valid across both: the next admission still hits.
  const auto again = manager.admit(app);
  ASSERT_EQ(again.status, runtime::AdmitStatus::Admitted);
  EXPECT_TRUE(again.shape_hit);
}

// 8-thread stress on one shared library: the TSan target. Rounds of
// structurally identical submissions warm the library, then hammer it
// concurrently while releases run from the submitting thread.
TEST(ConcurrentManagerShapes, SharedLibraryStress) {
  const auto platform = pe_mesh(6, 6, /*slots=*/2);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  runtime::ConcurrentOptions opts;
  opts.workers = 8;
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .shapes = shapes}, opts);
  // More planners than the 6 columns give stripes: some find none free.
  ASSERT_EQ(manager.stripe_count(), 6u);
  const auto app = std::make_shared<kpn::Application>(pe_chain(3, "stress"));

  std::uint64_t admitted_seen = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<runtime::AdmitOutcome>> futures;
    futures.reserve(32);
    for (int i = 0; i < 32; ++i) futures.push_back(manager.submit(app));
    std::vector<AppId> to_release;
    for (auto& f : futures) {
      const runtime::AdmitOutcome outcome = f.get();
      if (outcome.status == runtime::AdmitStatus::Admitted) {
        ++admitted_seen;
        to_release.push_back(outcome.app_id);
      }
    }
    for (const AppId id : to_release) EXPECT_TRUE(manager.release(id));
  }
  manager.wait_idle();

  const runtime::AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.admitted, admitted_seen);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.shape_hits, 0u) << "library never served a hit under load";
  EXPECT_LE(stats.shape_hits, stats.admitted);
  EXPECT_GT(stats.lease_admits, 0u) << "no shape miss was planned in a lease";
  EXPECT_LE(stats.shape_hits + stats.lease_admits, stats.admitted);
  EXPECT_EQ(stats.shape_inserts, shapes->stats().inserts);
  EXPECT_GT(stats.snapshot_reuses, 0u);
  EXPECT_EQ(manager.running_count(), 0u);

  const ShapeLibraryStats lib = shapes->stats();
  EXPECT_EQ(lib.lookups, lib.hits + lib.misses);
  EXPECT_GE(lib.hits, stats.shape_hits);
}

TEST(ConcurrentManagerShapes, BookedCommitLearnsThenRepeatHits) {
  // A miss-path plan booked before its step 4 and committed through that
  // booking must still enter the library, so the same skeleton hits next.
  const auto platform = pe_mesh(4, 4);
  auto shapes = std::make_shared<ShapeLibrary>(platform);
  auto probe = std::make_shared<test::BookingProbe>();
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = probe, .shapes = shapes}, {.workers = 1});
  const auto app = pe_chain(3, "booked");

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, runtime::AdmitStatus::Admitted)
      << first.mapping.failure;
  EXPECT_FALSE(first.shape_hit);
  EXPECT_EQ(probe->books.load(), 1) << "the miss path did not book";

  const auto second = manager.admit(pe_chain(3, "booked again"));
  ASSERT_EQ(second.status, runtime::AdmitStatus::Admitted)
      << second.mapping.failure;
  EXPECT_TRUE(second.shape_hit);
  EXPECT_EQ(probe->books.load(), 1) << "a shape hit never runs the mapper";
  EXPECT_EQ(second.mapping.achieved_period_ps,
            first.mapping.achieved_period_ps);

  const runtime::AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.shape_inserts, 1u);
  EXPECT_EQ(stats.shape_hits, 1u);
  EXPECT_EQ(manager.shape_stats().inserts, 1u);
}

TEST(ExpansionCacheLru, TouchOnHitProtectsHotEntries) {
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  const auto result = paper_mapper()->map(app, platform);
  ASSERT_TRUE(result.success);

  // Distinct signatures from distinct sizing targets.
  auto sig = [&](std::uint64_t period_ps) {
    verify::SizingKey key;
    key.target_period_ps = period_ps;
    return verify::MappingSignature::of(app, platform, result.mapping, key);
  };
  auto outcome = [] {
    auto o = std::make_shared<verify::VerificationOutcome>();
    o->feasible = true;
    return o;
  };

  verify::ExpansionCache cache(/*max_entries=*/2);
  cache.insert(sig(1000), outcome());  // A
  cache.insert(sig(2000), outcome());  // B
  ASSERT_NE(cache.find(sig(1000)), nullptr);  // touch A: LRU order B, A

  cache.insert(sig(3000), outcome());  // C evicts B (FIFO would evict A)
  EXPECT_EQ(cache.find(sig(2000)), nullptr);
  EXPECT_NE(cache.find(sig(1000)), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  // B never served a hit: not counted as hot.
  EXPECT_EQ(cache.evicted_while_hot(), 0u);

  // Now A (2 hits) is the victim when D arrives after C was touched.
  ASSERT_NE(cache.find(sig(3000)), nullptr);
  cache.insert(sig(4000), outcome());  // D evicts A — a hot eviction
  EXPECT_EQ(cache.find(sig(1000)), nullptr);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.evicted_while_hot(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Three entries, hits interleaved with inserts: each insert evicts the
  // entry touched longest ago, whatever its insertion order.
  verify::ExpansionCache three(/*max_entries=*/3);
  three.insert(sig(10), outcome());             // order: 10
  three.insert(sig(20), outcome());             // 20 10
  ASSERT_NE(three.find(sig(10)), nullptr);      // 10 20
  three.insert(sig(30), outcome());             // 30 10 20
  ASSERT_NE(three.find(sig(20)), nullptr);      // 20 30 10
  ASSERT_NE(three.find(sig(10)), nullptr);      // 10 20 30
  three.insert(sig(40), outcome());             // 40 10 20, evicts 30
  EXPECT_EQ(three.evictions(), 1u);
  EXPECT_EQ(three.evicted_while_hot(), 0u);
  EXPECT_EQ(three.find(sig(30)), nullptr);
  ASSERT_NE(three.find(sig(20)), nullptr);      // 20 40 10
  three.insert(sig(50), outcome());             // 50 20 40, evicts 10
  EXPECT_EQ(three.find(sig(10)), nullptr);
  EXPECT_EQ(three.evicted_while_hot(), 1u);
  three.insert(sig(60), outcome());             // 60 50 20, evicts 40
  EXPECT_EQ(three.find(sig(40)), nullptr);
  EXPECT_NE(three.find(sig(20)), nullptr);
  EXPECT_NE(three.find(sig(50)), nullptr);
  EXPECT_NE(three.find(sig(60)), nullptr);
  EXPECT_EQ(three.evictions(), 3u);
  EXPECT_EQ(three.evicted_while_hot(), 1u);
  EXPECT_EQ(three.size(), 3u);

  // A re-insert of a cached signature keeps the first outcome and does
  // not refresh its recency.
  const auto first = three.find(sig(20));  // 20 60 50
  three.insert(sig(20), outcome());
  EXPECT_EQ(three.find(sig(20)), first);
  EXPECT_EQ(three.size(), 3u);
  EXPECT_EQ(three.evictions(), 3u);
}

}  // namespace
}  // namespace rtsm::shapes
