#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "booking_probe.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/stats_report.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<const core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

/// A row of four single-slot compute tiles with IO tiles at the ends (the
/// same fragmentation fixture as defrag_test): one-stage apps occupy one
/// compute tile each, so releases leave scattered holes a defrag pass can
/// compact.
arch::Platform row_platform() {
  arch::Platform p("defrag 4x2", 4, 2);
  const TileTypeId big = p.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 200'000'000);
  p.add_tile("C0", big, 0, 0, 64 * 1024);
  p.add_tile("C1", big, 1, 0, 64 * 1024);
  p.add_tile("C2", big, 2, 0, 64 * 1024);
  p.add_tile("C3", big, 3, 0, 64 * 1024);
  p.add_tile("SRC", io, 0, 1, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, 3, 1, 64 * 1024, /*process_slots=*/8);
  return p;
}

kpn::Application fixture_app(std::uint32_t stages) {
  test::PipelineSpec spec;
  spec.stages = stages;
  spec.little_wcet_cc = 0;  // BIG only
  return test::pipeline_app(spec);
}

DefragOptions on_release_defrag(double threshold = 0.3) {
  DefragOptions defrag;
  defrag.policy = DefragPolicy::OnReleaseThreshold;
  defrag.fragmentation_threshold = threshold;
  return defrag;
}

kpn::Application compute_app(std::uint32_t stages,
                             std::uint32_t little_wcet_cc = 400) {
  test::PipelineSpec spec;
  spec.stages = stages;  // >= 2: a fixture-less app needs >= 1 channel
  spec.little_wcet_cc = little_wcet_cc;
  spec.with_fixtures = false;  // pure compute: no shared IO-tile fixtures
  return test::pipeline_app(spec);
}

/// Replays the still-running applications' commits serially into a fresh
/// ResourceState; the concurrent manager's live state must match it. This
/// is the correctness oracle of every stress test: whatever interleaving
/// happened, the booked state must equal a serial replay of the surviving
/// reservations.
void expect_state_equals_serial_replay(const arch::Platform& platform,
                                       const ConcurrentRuntimeManager& cm) {
  core::ResourceState replayed(platform);
  for (const AppId id : cm.running_ids()) {
    core::commit_mapping(replayed, *cm.app_of(id), cm.mapping_of(id));
  }
  EXPECT_TRUE(cm.state_snapshot() == replayed)
      << "concurrent bookkeeping diverged from a serial replay";
}

TEST(BoundedQueue, PushPopBatchCloseSemantics) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int three = 3;
  EXPECT_FALSE(q.try_push(std::move(three)));  // full
  EXPECT_EQ(q.size(), 2u);

  const auto batch = q.try_pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(q.try_pop_batch(8).empty());

  EXPECT_TRUE(q.try_push(4));
  q.close();
  int five = 5;
  EXPECT_FALSE(q.push(std::move(five)));  // closed, item untouched
  EXPECT_EQ(five, 5);
  const auto rest = q.pop_batch(8);  // drains the remainder, no block
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 4);
  EXPECT_TRUE(q.pop_batch(8).empty());  // closed + empty = end of stream
}

TEST(ConcurrentRuntimeManager, AdmitsAndReleasesWithWorkerPool) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 2, .queue_capacity = 16});
  const auto started = manager.admit(compute_app(2));
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_GT(manager.total_energy_nj_per_symbol(), 0.0);

  EXPECT_TRUE(manager.release(started.app_id));
  EXPECT_EQ(manager.running_count(), 0u);
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(manager.state_snapshot().utilization(tid), 0.0);
  }
}

TEST(ConcurrentRuntimeManager, EightThreadAdmitReleaseStress) {
  // The TSan target: 8 client threads hammer admit/release against a
  // 4-worker pool. Afterwards the live state must equal a serial replay of
  // the surviving reservations and every counter must balance.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 32, .max_batch = 4});
  const auto app = compute_app(2);  // two 2-stage apps fill the 4 tiles

  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kIterations = 8;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> released{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < kIterations; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          admitted.fetch_add(1);
          mine.push_back(outcome.app_id);
        }
        // Alternate clients release eagerly so capacity churns.
        if ((t + i) % 2 == 0 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          released.fetch_add(1);
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) {
        ASSERT_TRUE(manager.release(id));
        released.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, kThreads * kIterations);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.releases, released.load());
  EXPECT_EQ(stats.release_errors, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected + stats.deadline_misses,
            stats.offered);
  EXPECT_EQ(stats.latencies.count(), stats.offered);
  EXPECT_EQ(manager.running_count(), stats.admitted - stats.releases);

  // Everything was released: the platform must be pristine again.
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, StressWithoutReleasesMatchesSerialReplay) {
  // Saturate the platform from 8 threads with no churn: whatever subset of
  // requests won the race, the final state must replay serially.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 64, .max_batch = 8});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (std::uint32_t i = 0; i < 4; ++i) (void)manager.admit(app);
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  EXPECT_GT(manager.running_count(), 0u);  // some must fit on 4 tiles
  expect_state_equals_serial_replay(platform, manager);
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 32u);
  EXPECT_EQ(stats.admitted + stats.rejected, 32u);
}

TEST(ConcurrentRuntimeManager, InlinePumpFromManyThreads) {
  // workers == 0: the callers themselves pump the queue; racing pumps must
  // not lose or double-process requests.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 64, .max_batch = 4});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (std::uint32_t i = 0; i < 4; ++i) (void)manager.admit(app);
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 16u);
  EXPECT_EQ(stats.admitted + stats.rejected, 16u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, InlineSubmitPumpsWhenQueueFull) {
  // workers == 0 with a tiny queue: submit() has no consumer to wait for,
  // so it must make room by pumping inline instead of deadlocking.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 2, .max_batch = 2});
  const auto app = std::make_shared<kpn::Application>(compute_app(2));

  std::vector<std::future<AdmitOutcome>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(manager.submit(app));
  manager.pump();
  manager.wait_idle();
  for (auto& f : futures) {
    EXPECT_NE(f.get().status, AdmitStatus::Waiting);
  }
  EXPECT_EQ(manager.stats().offered, 5u);
}

TEST(ConcurrentRuntimeManager, BatchIsReorderedByPriorityPolicy) {
  // Three arrivals of different sizes queue up while no worker runs; one
  // pump() drains them as a single batch, and the smallest-first policy
  // must decide the admission (= resolution) order, not arrival order.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0,
       .queue_capacity = 16,
       .max_batch = 8,
       .priority = std::make_shared<SmallestFirstPriority>()});

  auto large = std::make_shared<kpn::Application>(compute_app(4));
  auto medium = std::make_shared<kpn::Application>(compute_app(3));
  auto small = std::make_shared<kpn::Application>(compute_app(2));
  auto f1 = manager.submit(large);
  auto f2 = manager.submit(medium);
  auto f3 = manager.submit(small);
  manager.pump();
  manager.wait_idle();

  const auto r1 = f1.get();
  const auto r2 = f2.get();
  const auto r3 = f3.get();
  const auto order = manager.resolution_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], r3.request);  // 2 stages first
  EXPECT_EQ(order[1], r2.request);  // then 3 stages
  EXPECT_EQ(order[2], r1.request);  // 4 stages last
}

TEST(ConcurrentRuntimeManager, FifoPriorityKeepsArrivalOrder) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 16, .max_batch = 8});
  auto f1 = manager.submit(std::make_shared<kpn::Application>(compute_app(3)));
  auto f2 = manager.submit(std::make_shared<kpn::Application>(compute_app(2)));
  manager.pump();
  const auto order = manager.resolution_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], f1.get().request);
  EXPECT_EQ(order[1], f2.get().request);
}

TEST(ConcurrentRuntimeManager, LeaseStripesPartitionTheMeshWithFallback) {
  // Two workers on the 3x2 test mesh: one stripe per mesh column. Leased
  // planning must still admit up to capacity thanks to the whole-platform
  // fallback, and the bookkeeping must stay replayable.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 2, .queue_capacity = 16});
  ASSERT_EQ(manager.stripe_count(), 3u);

  // Every tile belongs to exactly one stripe, its column.
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_EQ(manager.stripe_of(tid), platform.tile(tid).x);
  }

  const auto app = compute_app(2);
  std::uint32_t ok = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    if (manager.admit(app).status == AdmitStatus::Admitted) ++ok;
  }
  // 2 BIG + 2 LITTLE single-slot tiles: two 2-stage apps fill them. The
  // IO-only stripe holds no tile type the stages run on, so it is never
  // leased: the two admissions are leased in the BIG+LITTLE columns, and
  // the two requests that find the mesh full fall back.
  EXPECT_EQ(ok, 2u);
  EXPECT_GT(manager.stats().lease_admits, 0u);
  EXPECT_GE(manager.stats().lease_fallbacks, 1u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, NoLeasesWithOnePlanner) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager pumped(platform, {.mapper = paper_mapper()},
                                  {.workers = 0});
  ConcurrentRuntimeManager single(platform, {.mapper = paper_mapper()},
                                  {.workers = 1});
  EXPECT_EQ(pumped.stripe_count(), 0u);
  EXPECT_EQ(single.stripe_count(), 0u);
  ASSERT_EQ(single.admit(compute_app(2)).status, AdmitStatus::Admitted);
  EXPECT_EQ(single.stats().lease_admits + single.stats().lease_fallbacks, 0u);
}

TEST(ConcurrentRuntimeManager, RetryPolicyParksAndReleaseWakes) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(), .policy = std::make_shared<RetryAdmission>(3)},
      {.workers = 2, .queue_capacity = 16});
  // Needs both BIG tiles: one instance saturates them.
  const auto big_only = compute_app(2, /*little_wcet_cc=*/0);

  const auto a = manager.admit(big_only);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);

  // Both BIG tiles taken: the second request parks instead of resolving.
  auto parked =
      manager.submit(std::make_shared<kpn::Application>(big_only));
  manager.wait_idle();
  EXPECT_EQ(manager.waiting_count(), 1u);
  EXPECT_EQ(parked.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // A release wakes it; the future now resolves as admitted.
  ASSERT_TRUE(manager.release(a.app_id));
  const auto outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted);
  // Each pass is a leased attempt (no column holds both BIG tiles) and a
  // whole-platform one.
  EXPECT_EQ(outcome.attempts, 4u);
  EXPECT_EQ(manager.stats().lease_fallbacks, 3u);
  EXPECT_EQ(manager.waiting_count(), 0u);
  EXPECT_GE(manager.stats().retries, 1u);
}

TEST(ConcurrentRuntimeManager, RetryChurnDoesNotStrandParkedRequests) {
  // Releases race against park decisions. The release-epoch check must
  // guarantee that a request never parks itself past the release that
  // would have woken it (the lost-wakeup race): with continuous churn,
  // every one of these competing requests must eventually resolve.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(),
       .policy = std::make_shared<RetryAdmission>(100)},
      {.workers = 3, .queue_capacity = 32});
  // Needs both BIG tiles: only one instance can run at a time.
  const auto big_only = compute_app(2, /*little_wcet_cc=*/0);

  std::vector<std::future<AdmitOutcome>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        manager.submit(std::make_shared<kpn::Application>(big_only)));
  }

  // Churn: release whatever runs so the next parked request can win.
  std::size_t resolved = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (resolved < futures.size() &&
         std::chrono::steady_clock::now() < deadline) {
    for (const AppId id : manager.running_ids()) manager.release(id);
    resolved = 0;
    for (auto& f : futures) {
      if (f.wait_for(std::chrono::milliseconds(1)) ==
          std::future_status::ready) {
        ++resolved;
      }
    }
  }
  ASSERT_EQ(resolved, futures.size()) << "a parked request was stranded";
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, AdmitStatus::Admitted);
  }
  for (const AppId id : manager.running_ids()) manager.release(id);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, RejectWaitingResolvesParkedFutures) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(), .policy = std::make_shared<RetryAdmission>(5)},
      {.workers = 1, .queue_capacity = 16});
  // Impossible: 5 BIG-only stages on 2 BIG tiles — parked forever.
  auto parked = manager.submit(std::make_shared<kpn::Application>(
      compute_app(5, /*little_wcet_cc=*/0)));
  manager.wait_idle();
  ASSERT_EQ(manager.waiting_count(), 1u);

  const auto resolved = manager.reject_waiting();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].status, AdmitStatus::Rejected);
  EXPECT_EQ(parked.get().status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.stats().rejected, 1u);
}

TEST(ConcurrentRuntimeManager, ShutdownResolvesEverything) {
  const auto platform = test::small_platform();
  std::future<AdmitOutcome> parked;
  {
    ConcurrentRuntimeManager manager(
        platform,
        {.mapper = paper_mapper(),
         .policy = std::make_shared<RetryAdmission>(5)},
        {.workers = 2, .queue_capacity = 16});
    parked = manager.submit(std::make_shared<kpn::Application>(
        compute_app(5, /*little_wcet_cc=*/0)));
    manager.wait_idle();
    // Destructor shuts down: the parked future must still resolve.
  }
  EXPECT_EQ(parked.get().status, AdmitStatus::Rejected);
}

TEST(ConcurrentRuntimeManager, ParkedRequestIsReattemptedAfterDefragPass) {
  // Deterministic (workers == 0): a two-tile request parks while only
  // scattered one-tile holes exist; a release-triggered defrag pass
  // compacts the row into a contiguous hole and the woken retry admits.
  const auto platform = row_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(),
       .policy = std::make_shared<RetryAdmission>(5),
       .defrag = on_release_defrag()},
      {.workers = 0, .queue_capacity = 16});

  const auto one = fixture_app(1);
  std::vector<AppId> ids;
  for (int i = 0; i < 4; ++i) {
    const auto outcome = manager.admit(one);
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }

  // Needs two compute tiles: parks while the row is full.
  auto parked =
      manager.submit(std::make_shared<kpn::Application>(fixture_app(2)));
  manager.pump();
  ASSERT_EQ(manager.waiting_count(), 1u);

  // One scattered hole: the wake retries, fails again, re-parks.
  ASSERT_TRUE(manager.release(ids[1]));
  manager.pump();
  ASSERT_EQ(manager.waiting_count(), 1u);

  // Second scattered hole: the pass migrates the C2 resident into the C1
  // hole, the woken retry plans onto the contiguous C2+C3 pair.
  ASSERT_TRUE(manager.release(ids[3]));
  manager.pump();
  const auto outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted)
      << outcome.mapping.failure;
  EXPECT_GE(outcome.attempts, 3u);

  const AdmissionStats stats = manager.stats();
  EXPECT_GE(stats.defrag_passes, 1u);
  EXPECT_GE(stats.migrations, 1u);
  EXPECT_GE(stats.parked_woken_by_defrag, 1u);
  EXPECT_EQ(stats.migration_failures, 0u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, OnRejectDefragGivesTheRequestASecondChance) {
  // Two dual-slot tiles, residents smeared one per tile at 0.3
  // utilisation each: a 0.8-utilisation app fits neither tile until the
  // on-reject pass consolidates the residents onto one tile.
  arch::Platform platform("pair 2x2", 2, 2);
  const TileTypeId big = platform.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = platform.add_tile_type("IO", 200'000'000);
  platform.add_tile("C0", big, 0, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("C1", big, 1, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("SRC", io, 0, 1, 64 * 1024, 8);
  platform.add_tile("DST", io, 1, 1, 64 * 1024, 8);

  test::PipelineSpec small;
  small.stages = 1;
  small.little_wcet_cc = 0;
  small.big_wcet_cc = 240;  // util 0.3 at 200 MHz / 4 us
  test::PipelineSpec large = small;
  large.big_wcet_cc = 640;  // util 0.8

  DefragOptions defrag;
  defrag.policy = DefragPolicy::OnReject;
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = defrag},
      {.workers = 0, .queue_capacity = 16});

  std::vector<AppId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = manager.admit(test::pipeline_app(small));
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }
  ASSERT_TRUE(manager.release(ids[0]));  // leave one resident per tile

  const auto outcome = manager.admit(test::pipeline_app(large));
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted)
      << outcome.mapping.failure;
  EXPECT_GE(outcome.attempts, 2u);
  const AdmissionStats stats = manager.stats();
  EXPECT_GE(stats.defrag_passes, 1u);
  EXPECT_GE(stats.migrations, 1u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, EightThreadStressWithDefragOn) {
  // The defrag TSan target: admit/release churn from 8 clients while
  // release-triggered passes migrate running applications under the state
  // lock. Counters must balance and the final state must replay serially.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = on_release_defrag(0.1)},
      {.workers = 4, .queue_capacity = 32, .max_batch = 4});
  const auto app = compute_app(2);

  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kIterations = 8;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < kIterations; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          admitted.fetch_add(1);
          mine.push_back(outcome.app_id);
        }
        if ((t + i) % 2 == 0 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) ASSERT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, kThreads * kIterations);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.admitted + stats.rejected + stats.deadline_misses,
            stats.offered);
  EXPECT_EQ(stats.releases, stats.admitted);  // everything was released
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, LeaseStressWithDefragRebalances) {
  // Region leases + defrag: passes plan whole-platform, so migrations may
  // cross stripe boundaries. The bookkeeping must survive the combination
  // under churn.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = on_release_defrag(0.1)},
      {.workers = 2, .queue_capacity = 32});
  ASSERT_EQ(manager.stripe_count(), 3u);
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < 6; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          mine.push_back(outcome.app_id);
        }
        if ((t + i) % 2 == 1 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) ASSERT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, UnknownReleaseIsReportedError) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 1, .queue_capacity = 8});
  EXPECT_FALSE(manager.release(AppId{99}));
  EXPECT_EQ(manager.stats().release_errors, 1u);
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, AppId{99});

  // Double release: the second one is the reported error.
  const auto started = manager.admit(compute_app(2));
  ASSERT_EQ(started.status, AdmitStatus::Admitted);
  EXPECT_TRUE(manager.release(started.app_id));
  EXPECT_FALSE(manager.release(started.app_id));
  EXPECT_EQ(manager.stats().release_errors, 2u);
}

TEST(ConcurrentRuntimeManager, DeadlineMissBooksNothing) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 1, .queue_capacity = 8});
  const auto result = manager.admit(compute_app(2), /*deadline_us=*/1e-3);
  EXPECT_EQ(result.status, AdmitStatus::DeadlineMiss);
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_EQ(manager.stats().deadline_misses, 1u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
}

// ------------------------------------------- booking before step 4 --

/// The booking-release oracle: the live books equal a serial replay of the
/// survivors, and releasing every survivor restores the pristine platform.
void expect_books_balance_and_release_all(const arch::Platform& platform,
                                          ConcurrentRuntimeManager& cm) {
  expect_state_equals_serial_replay(platform, cm);
  for (const AppId id : cm.running_ids()) EXPECT_TRUE(cm.release(id));
  EXPECT_TRUE(
      cm.state_snapshot() == core::ResourceState(platform))
      << "releasing every survivor left resources booked";
}

kpn::Application period_bound_app(std::uint64_t period_ns) {
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.period_ns = period_ns;
  return test::pipeline_app(spec);
}

TEST(ConcurrentBooking, FailedStepFourReleasesTheBooking) {
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::vector<bool> visible;  // placement live in the books while booked
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 0});
  probe->after_book = [&](int) {
    visible.push_back(manager.state_snapshot() !=
                      core::ResourceState(platform));
  };

  // At 1.2 us per symbol steps 1-3 succeed but step 4 cannot reach the
  // period; the next round runs out of implementations. One booking, and
  // the mapper releases it.
  const AdmitOutcome rejected = manager.admit(period_bound_app(1200));
  EXPECT_EQ(rejected.status, AdmitStatus::Rejected);
  EXPECT_NE(rejected.mapping.failure.find("step 1 failed"), std::string::npos)
      << rejected.mapping.failure;
  EXPECT_EQ(probe->books.load(), 1);
  EXPECT_EQ(probe->releases.load(), 1);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));

  // At 2 us the first round's step 4 fails, the refined round succeeds:
  // booked, released, booked again and committed.
  const AdmitOutcome admitted = manager.admit(period_bound_app(2000));
  ASSERT_EQ(admitted.status, AdmitStatus::Admitted)
      << admitted.mapping.failure;
  EXPECT_GE(admitted.mapping.rounds, 2u);
  EXPECT_EQ(probe->books.load(), 1 + static_cast<int>(admitted.mapping.rounds));
  EXPECT_EQ(probe->releases.load(), static_cast<int>(admitted.mapping.rounds));
  EXPECT_EQ(probe->refusals.load(), 0);
  EXPECT_EQ(visible, std::vector<bool>(visible.size(), true));

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.booking_conflicts, 0u);
  EXPECT_EQ(stats.gated_commits + stats.validated_commits, stats.admitted);
  expect_books_balance_and_release_all(platform, manager);
}

TEST(ConcurrentBooking, DeadlineMissAfterBookingReleasesIt) {
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 1, .queue_capacity = 8});
  const AdmitOutcome survivor = manager.admit(compute_app(2));
  ASSERT_EQ(survivor.status, AdmitStatus::Admitted);

  const AdmitOutcome missed = manager.admit(compute_app(2), 1e-3);
  EXPECT_EQ(missed.status, AdmitStatus::DeadlineMiss);
  EXPECT_EQ(probe->books.load(), 2) << "the late plan was never booked";
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_EQ(manager.stats().deadline_misses, 1u);
  expect_books_balance_and_release_all(platform, manager);
}

TEST(ConcurrentBooking, ShutdownWithAPlanInFlight) {
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> booked;
  std::promise<void> resume;
  std::shared_future<void> resumed = resume.get_future().share();
  probe->after_book = [&](int arrival) {
    if (arrival != 1) return;
    booked.set_value();
    resumed.wait();  // hold the placement booked, step 4 not yet run
  };
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 1, .queue_capacity = 8});
  auto in_flight =
      manager.submit(std::make_shared<kpn::Application>(compute_app(2)));
  booked.get_future().wait();
  EXPECT_FALSE(
      manager.state_snapshot() == core::ResourceState(platform))
      << "a booked placement must be visible to later snapshots";
  auto queued =
      manager.submit(std::make_shared<kpn::Application>(compute_app(2)));

  std::thread closer([&] { manager.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  resume.set_value();
  closer.join();

  // Queued work still drains at shutdown: both plans resolve, and the
  // books hold exactly the survivors.
  const AdmitOutcome first = in_flight.get();
  EXPECT_EQ(first.status, AdmitStatus::Admitted) << first.mapping.failure;
  const AdmitOutcome second = queued.get();
  EXPECT_NE(second.status, AdmitStatus::Waiting);
  expect_books_balance_and_release_all(platform, manager);
}

TEST(ConcurrentBooking, BookingConflictCountsAgainstTheRetryBudget) {
  // Two one-stage apps plan the same single-slot tile on the same empty
  // snapshot. The first to reach its booking waits until the second has
  // booked, then conflicts and re-plans onto the next tile.
  const auto platform = row_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> second_booked;
  std::shared_future<void> second = second_booked.get_future().share();
  probe->before_book = [&](int arrival) {
    if (arrival == 1) {
      EXPECT_EQ(second.wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
    }
  };
  probe->after_book = [&](int arrival) {
    if (arrival == 2) second_booked.set_value();
  };
  ConcurrentRuntimeManager manager(
      platform, {.mapper = probe},
      {.workers = 2, .queue_capacity = 8, .max_batch = 1});
  const auto app = std::make_shared<kpn::Application>(fixture_app(1));
  auto a = manager.submit(app);
  auto b = manager.submit(app);
  const AdmitOutcome oa = a.get();
  const AdmitOutcome ob = b.get();
  ASSERT_EQ(oa.status, AdmitStatus::Admitted) << oa.mapping.failure;
  ASSERT_EQ(ob.status, AdmitStatus::Admitted) << ob.mapping.failure;
  // No stripe can be leased (the fixtures pin SRC and DST to the first
  // and last stripe), so each request plans whole-platform at once.
  EXPECT_EQ(oa.attempts + ob.attempts, 3u) << "one request re-planned once";
  EXPECT_EQ(manager.stats().lease_fallbacks, 2u);
  EXPECT_NE(manager.mapping_of(oa.app_id).tile_of(ProcessId{0}),
            manager.mapping_of(ob.app_id).tile_of(ProcessId{0}));
  EXPECT_EQ(probe->refusals.load(), 1);

  const StatsReport report = manager.stats_report();
  EXPECT_EQ(report.admission.conflicts, 1u);
  EXPECT_EQ(report.admission.booking_conflicts, 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"conflicts\":1,\"booking_conflicts\":1,"),
            std::string::npos)
      << json;
  expect_books_balance_and_release_all(platform, manager);
}

/// Two "PE" tiles with two process slots and 64 KiB each.
arch::Platform two_tile_platform() {
  arch::Platform p("two tiles", 2, 1);
  const TileTypeId pe = p.add_tile_type("PE", 200'000'000);
  p.add_tile("T0", pe, 0, 0, 64 * 1024, /*process_slots=*/2);
  p.add_tile("T1", pe, 1, 0, 64 * 1024, /*process_slots=*/2);
  return p;
}

/// S0 -> S1 on "PE" tiles: @p tokens 4-byte tokens per symbol, and every
/// implementation takes @p wcet_cc cycles of a 4 us period and @p memory
/// bytes.
kpn::Application pe_pair(const std::string& name, std::uint32_t tokens,
                         std::uint32_t wcet_cc, std::uint64_t memory) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app(name, qos);
  const ProcessId s0 = app.add_process("S0");
  const ProcessId s1 = app.add_process("S1");
  const ChannelId c = app.connect(s0, s1, tokens);
  for (const ProcessId pid : {s0, s1}) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@PE";
    im.tile_type = "PE";
    im.wcet_cc = {wcet_cc};
    if (pid == s0) im.outputs.push_back({c, {tokens}});
    if (pid == s1) im.inputs.push_back({c, {tokens}});
    im.energy_nj_per_symbol = 100.0;
    im.memory_bytes = memory;
    app.add_implementation(pid, std::move(im));
  }
  app.validate();
  return app;
}

TEST(ConcurrentBooking, BufferMisfitAtFinalCommitIsAConflict) {
  // A books one stage per tile (each stage needs 62.5% of a tile), then
  // waits before its step 4. B, planned on a snapshot that shows A's
  // booking but not A's buffer, takes the free slot and almost all the
  // memory of both tiles. A's buffer no longer fits its consumer tile:
  // the final commit conflicts, releases A's booking, and the re-plan
  // finds no memory left.
  const auto platform = two_tile_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> a_booked;
  std::promise<void> b_admitted;
  std::shared_future<void> b_done = b_admitted.get_future().share();
  probe->after_book = [&](int arrival) {
    if (arrival != 1) return;
    a_booked.set_value();
    EXPECT_EQ(b_done.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  };
  ConcurrentRuntimeManager manager(
      platform, {.mapper = probe},
      {.workers = 2, .queue_capacity = 8, .max_batch = 1});

  const std::uint64_t memory = 4 * 1024;
  auto a = manager.submit(std::make_shared<kpn::Application>(
      pe_pair("A", /*tokens=*/64, /*wcet_cc=*/500, memory)));
  a_booked.get_future().wait();
  // 4 KiB of A and B's 4-byte buffer leave one byte free on B's consumer
  // tile; the other tile keeps at most B's buffer size plus one byte.
  const AdmitOutcome b = manager.admit(pe_pair(
      "B", /*tokens=*/1, /*wcet_cc=*/100, 64 * 1024 - memory - 4 - 1));
  ASSERT_EQ(b.status, AdmitStatus::Admitted) << b.mapping.failure;
  b_admitted.set_value();

  const AdmitOutcome oa = a.get();
  EXPECT_EQ(oa.status, AdmitStatus::Rejected);
  // A leased attempt (one tile cannot hold both stages), then two
  // whole-platform ones.
  EXPECT_EQ(oa.attempts, 3u);
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(stats.booking_conflicts, 0u) << "the booking itself fitted";
  EXPECT_EQ(manager.running_count(), 1u);
  expect_books_balance_and_release_all(platform, manager);
}

/// Polls until @p manager holds @p parked parked requests; false after 10 s.
bool wait_for_parked(const ConcurrentRuntimeManager& manager,
                     std::size_t parked) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager.waiting_count() != parked) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ConcurrentBooking, ReleasedBookingWakesAParkedRequest) {
  // Y books both single-slot IO tiles, then waits before its step 4, which
  // fails. X, planned on a snapshot that shows Y's booking, finds no
  // fixture slot and parks. Nothing else ever releases: Y's released
  // booking must wake X.
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> y_booked;
  std::promise<void> x_parked;
  std::shared_future<void> parked = x_parked.get_future().share();
  probe->after_book = [&](int arrival) {
    if (arrival != 1) return;
    y_booked.set_value();
    EXPECT_EQ(parked.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  };
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = probe, .policy = std::make_shared<RetryAdmission>(4)},
      {.workers = 2, .queue_capacity = 8, .max_batch = 1});

  auto y = manager.submit(
      std::make_shared<kpn::Application>(period_bound_app(1200)));
  y_booked.get_future().wait();
  auto x = manager.submit(
      std::make_shared<kpn::Application>(period_bound_app(4000)));
  ASSERT_TRUE(wait_for_parked(manager, 1)) << "X did not park";
  x_parked.set_value();

  ASSERT_EQ(x.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "the released booking did not wake the parked request";
  const AdmitOutcome ox = x.get();
  EXPECT_EQ(ox.status, AdmitStatus::Admitted) << ox.mapping.failure;
  // No stripe holds both the fixtures' tiles and a compute tile, so no
  // pass is leased: one whole-platform attempt before parking, one after.
  EXPECT_EQ(ox.attempts, 2u);
  // Y's own wake says nothing about Y's verdict: Y parks after one attempt
  // instead of re-planning on it.
  ASSERT_TRUE(wait_for_parked(manager, 1)) << "Y did not park";
  EXPECT_EQ(probe->releases.load(), 1);
  EXPECT_EQ(manager.stats().retries, 1u);
  const std::vector<AdmitOutcome> given_up = manager.reject_waiting();
  ASSERT_EQ(given_up.size(), 1u);
  const AdmitOutcome oy = y.get();
  EXPECT_EQ(oy.status, AdmitStatus::Rejected);
  EXPECT_EQ(oy.attempts, 1u);
  expect_books_balance_and_release_all(platform, manager);
}

TEST(ConcurrentBooking, WakeOnAFullQueueIsDeferredToTheNextPop) {
  // As above, but when Y's booking is released the other worker holds Z's
  // plan in flight and W fills the one-slot queue. Y's worker must not
  // block on the queue it consumes: X stays parked until that worker pops
  // W, then wakes and is admitted beside Z's booking.
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> y_booked;
  std::promise<void> z_booked;
  std::promise<void> y_go;
  std::promise<void> z_go;
  std::shared_future<void> y_resume = y_go.get_future().share();
  std::shared_future<void> z_resume = z_go.get_future().share();
  probe->after_book = [&](int arrival) {
    // Bounded waits: a failed assertion below must not strand a worker.
    if (arrival == 1) {
      y_booked.set_value();
      y_resume.wait_for(std::chrono::seconds(10));
    } else if (arrival == 2) {
      z_booked.set_value();
      z_resume.wait_for(std::chrono::seconds(10));
    }
  };
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = probe, .policy = std::make_shared<RetryAdmission>(8)},
      {.workers = 2, .queue_capacity = 1, .max_batch = 1});

  auto y = manager.submit(
      std::make_shared<kpn::Application>(period_bound_app(1200)));
  y_booked.get_future().wait();
  auto x = manager.submit(
      std::make_shared<kpn::Application>(period_bound_app(4000)));
  ASSERT_TRUE(wait_for_parked(manager, 1)) << "X did not park";
  auto z = manager.submit(std::make_shared<kpn::Application>(compute_app(2)));
  z_booked.get_future().wait();
  // No implementation reaches a 100 ns period: W fails step 1 without a
  // booking, and waits in the queue until Y's worker is free.
  auto w = manager.submit(
      std::make_shared<kpn::Application>(period_bound_app(100)));
  y_go.set_value();

  ASSERT_EQ(x.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "the deferred wake never ran";
  const AdmitOutcome ox = x.get();
  EXPECT_EQ(ox.status, AdmitStatus::Admitted) << ox.mapping.failure;
  z_go.set_value();
  const AdmitOutcome oz = z.get();
  EXPECT_EQ(oz.status, AdmitStatus::Admitted) << oz.mapping.failure;

  manager.wait_idle();
  EXPECT_EQ(manager.reject_waiting().size(), 2u) << "Y and W stay parked";
  EXPECT_EQ(y.get().status, AdmitStatus::Rejected);
  EXPECT_EQ(w.get().status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.running_count(), 2u);
  expect_books_balance_and_release_all(platform, manager);
}

// ------------------------------------------------------ region leases --

/// A width x 1 row of "BIG" tiles, one per column, with @p slots process
/// slots each: every lease stripe looks alike.
arch::Platform big_row(std::uint32_t width, std::uint32_t slots) {
  arch::Platform p("big row", width, 1);
  const TileTypeId big = p.add_tile_type("BIG", 200'000'000);
  for (std::uint32_t x = 0; x < width; ++x) {
    std::string name = "B";
    name += std::to_string(x);
    p.add_tile(name, big, x, 0, 64 * 1024, slots);
  }
  return p;
}

/// A non-booking spatial mapper that reports which lease stripe each plan
/// is confined to (the one stripe whose tiles are not all saturated in the
/// snapshot) and counts planners inside one stripe at once. Each plan
/// lingers a little, so that concurrent planners overlap.
class StripeWatch final : public core::Mapper {
 public:
  const ConcurrentRuntimeManager* manager = nullptr;
  mutable std::atomic<int> overlaps{0};
  mutable std::atomic<int> leased_plans{0};
  mutable std::atomic<int> busy{0};
  mutable std::atomic<int> max_busy{0};

  [[nodiscard]] std::string name() const override { return "stripe-watch"; }
  [[nodiscard]] std::string describe() const override {
    return "spatial mapper that watches its lease stripe";
  }

  using Mapper::map;
  [[nodiscard]] core::MappingResult map(
      const kpn::Application& app,
      const core::ResourceState& base) const override {
    const int now_busy = ++busy;
    int seen = max_busy.load();
    while (now_busy > seen && !max_busy.compare_exchange_weak(seen, now_busy)) {
    }
    const std::optional<std::size_t> stripe = leased_stripe(base);
    if (stripe && ++inside_[*stripe] > 1) ++overlaps;
    if (stripe) ++leased_plans;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    core::MappingResult result = inner_.map(app, base);
    if (stripe) --inside_[*stripe];
    --busy;
    return result;
  }

 private:
  /// Saturated tiles have no free memory; a genuinely full tile here
  /// always keeps some.
  std::optional<std::size_t> leased_stripe(
      const core::ResourceState& base) const {
    std::optional<std::size_t> open;
    bool masked = false;
    for (const TileId tid : base.platform().tile_ids()) {
      if (base.memory_free(tid) == 0) {
        masked = true;
      } else {
        open = manager->stripe_of(tid);
      }
    }
    if (!masked || !open) return std::nullopt;
    return open;
  }

  core::SpatialMapper inner_;
  mutable std::array<std::atomic<int>, 8> inside_{};
};

TEST(RegionLease, TwoPlannersNeverHoldOneStripe) {
  // Stripes of two 8-slot tiles and 5%-utilization stages: even the
  // fullest stripe a planner can be left with has room, so every request
  // is admitted inside its lease.
  const auto platform = big_row(8, /*slots=*/8);
  auto watch = std::make_shared<StripeWatch>();
  ConcurrentRuntimeManager manager(platform, {.mapper = watch},
                                   {.workers = 3, .queue_capacity = 64});
  watch->manager = &manager;
  ASSERT_EQ(manager.stripe_count(), 4u);
  test::PipelineSpec light;
  light.stages = 2;
  light.big_wcet_cc = 40;
  light.little_wcet_cc = 0;
  light.with_fixtures = false;
  const auto app = std::make_shared<kpn::Application>(test::pipeline_app(light));

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      std::vector<AppId> mine;
      for (int i = 0; i < 12; ++i) {
        const AdmitOutcome outcome = manager.submit(app).get();
        if (outcome.status == AdmitStatus::Admitted) {
          mine.push_back(outcome.app_id);
        }
        if (mine.size() > 2) {
          EXPECT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) EXPECT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  EXPECT_EQ(watch->overlaps.load(), 0) << "two planners shared a stripe";
  EXPECT_GE(watch->max_busy.load(), 2) << "the planners never overlapped";
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.admitted, 48u);
  EXPECT_EQ(stats.lease_admits, 48u);
  EXPECT_EQ(static_cast<std::uint64_t>(watch->leased_plans.load()), 48u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
}

TEST(RegionLease, NonBookingMapperCommitsThroughEndValidation) {
  const auto platform = big_row(3, /*slots=*/2);
  auto watch = std::make_shared<StripeWatch>();
  ConcurrentRuntimeManager manager(platform, {.mapper = watch},
                                   {.workers = 2, .queue_capacity = 8});
  watch->manager = &manager;
  for (int i = 0; i < 3; ++i) {
    const AdmitOutcome outcome = manager.admit(compute_app(2, 0));
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted) << outcome.mapping.failure;
    EXPECT_EQ(outcome.attempts, 1u);
  }
  // Each plan landed in its own stripe, the least occupied, and was
  // validated whole against the live state.
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.lease_admits, 3u);
  EXPECT_EQ(stats.lease_fallbacks, 0u);
  EXPECT_EQ(stats.validated_commits, 3u);
  EXPECT_EQ(stats.gated_commits, 0u);
  EXPECT_EQ(stats.booking_conflicts, 0u);
  std::vector<std::size_t> stripes;
  for (const AppId id : manager.running_ids()) {
    const core::Mapping mapping = manager.mapping_of(id);
    const std::size_t s = manager.stripe_of(mapping.tile_of(ProcessId{0}));
    EXPECT_EQ(manager.stripe_of(mapping.tile_of(ProcessId{1})), s);
    stripes.push_back(s);
  }
  std::sort(stripes.begin(), stripes.end());
  EXPECT_EQ(stripes, (std::vector<std::size_t>{0, 1, 2}));
  expect_books_balance_and_release_all(platform, manager);
}

TEST(RegionLease, AppThatFitsNoStripeIsAdmittedThroughTheFallback) {
  // One stripe per column of the 3x2 test mesh; no column holds three
  // compute tiles, so a 3-stage application fits no stripe.
  const auto platform = test::small_platform();
  auto probe = std::make_shared<test::BookingProbe>();
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 2, .queue_capacity = 8});
  const AdmitOutcome wide = manager.admit(compute_app(3));
  ASSERT_EQ(wide.status, AdmitStatus::Admitted) << wide.mapping.failure;
  EXPECT_EQ(wide.attempts, 2u) << "one leased attempt, one whole-platform";
  AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.lease_fallbacks, 1u);
  EXPECT_EQ(stats.lease_admits, 0u);
  EXPECT_EQ(stats.conflicts, 0u) << "a stripe too small is no conflict";

  // The three tiles it spans are in three different columns.
  const core::Mapping mapping = manager.mapping_of(wide.app_id);
  std::vector<std::size_t> stripes;
  for (const ProcessId pid : manager.app_of(wide.app_id)->process_ids()) {
    stripes.push_back(manager.stripe_of(mapping.tile_of(pid)));
  }
  std::sort(stripes.begin(), stripes.end());
  EXPECT_NE(stripes.front(), stripes.back());
  expect_books_balance_and_release_all(platform, manager);
}

/// Admits one 2-stage BIG app per stripe of a big_row(3, 2) manager and
/// expects each to be leased: a stripe whose lease leaked would be skipped,
/// and its application would have to fall back.
void expect_every_stripe_leasable(ConcurrentRuntimeManager& manager) {
  const AdmissionStats before = manager.stats();
  std::vector<AppId> ids;
  for (std::size_t i = 0; i < manager.stripe_count(); ++i) {
    const AdmitOutcome outcome = manager.admit(compute_app(2, 0));
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted) << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }
  const AdmissionStats after = manager.stats();
  EXPECT_EQ(after.lease_admits - before.lease_admits, manager.stripe_count());
  EXPECT_EQ(after.lease_fallbacks, before.lease_fallbacks);
  for (const AppId id : ids) EXPECT_TRUE(manager.release(id));
}

TEST(RegionLease, DeadlineMissReleasesLeaseAndBooking) {
  const auto platform = big_row(3, /*slots=*/2);
  auto probe = std::make_shared<test::BookingProbe>();
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 2, .queue_capacity = 8});
  const AdmitOutcome missed = manager.admit(compute_app(2, 0), 1e-3);
  EXPECT_EQ(missed.status, AdmitStatus::DeadlineMiss);
  EXPECT_EQ(probe->books.load(), 1) << "the late plan was never booked";
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot() == core::ResourceState(platform));
  expect_every_stripe_leasable(manager);
}

TEST(RegionLease, ExceptionReleasesLeaseAndBooking) {
  // Both pool workers hold a booked plan. The test thread then pumps two
  // requests itself, each in the one stripe left: the first throws while
  // it holds the lease, the second right after its booking. Each is
  // rejected with the exception text; pump() does not throw.
  const auto platform = big_row(3, /*slots=*/2);
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> both_booked;
  std::atomic<int> booked{0};
  std::promise<void> resume;
  std::shared_future<void> resumed = resume.get_future().share();
  probe->before_book = [&](int arrival) {
    if (arrival == 3) throw Error("mapper failure inside the lease");
  };
  probe->after_book = [&](int arrival) {
    if (arrival == 4) throw Error("mapper failure after the booking");
    if (arrival > 2) return;
    if (++booked == 2) both_booked.set_value();
    resumed.wait_for(std::chrono::seconds(10));
  };
  ConcurrentRuntimeManager manager(
      platform, {.mapper = probe},
      {.workers = 2, .queue_capacity = 8, .max_batch = 1});
  const auto app = std::make_shared<kpn::Application>(compute_app(2, 0));
  auto a = manager.submit(app);
  auto b = manager.submit(app);
  both_booked.get_future().wait();

  auto c = manager.submit(app);
  EXPECT_NO_THROW(manager.pump());
  auto d = manager.submit(app);
  EXPECT_NO_THROW(manager.pump());
  // Only the workers' two bookings are live.
  const core::ResourceState live = manager.state_snapshot();
  std::uint32_t hosted = 0;
  for (const TileId tid : platform.tile_ids()) {
    hosted += live.processes_hosted(tid);
  }
  EXPECT_EQ(hosted, 4u);
  EXPECT_EQ(probe->books.load(), 3);

  resume.set_value();
  ASSERT_EQ(a.get().status, AdmitStatus::Admitted);
  ASSERT_EQ(b.get().status, AdmitStatus::Admitted);
  const AdmitOutcome rc = c.get();
  EXPECT_EQ(rc.status, AdmitStatus::Rejected);
  EXPECT_EQ(rc.mapping.failure, "mapper failure inside the lease");
  const AdmitOutcome rd = d.get();
  EXPECT_EQ(rd.status, AdmitStatus::Rejected);
  EXPECT_EQ(rd.mapping.failure, "mapper failure after the booking");
  manager.wait_idle();  // every request's in-flight count was returned
  EXPECT_EQ(manager.stats().rejected, 2u);
  for (const AppId id : manager.running_ids()) EXPECT_TRUE(manager.release(id));
  expect_every_stripe_leasable(manager);
}

TEST(RegionLease, ExceptionOnAPoolWorkerRejectsTheRequest) {
  // The same two failures on the pool workers: the exception must not end
  // the worker thread, and the requests resolve as rejections.
  const auto platform = big_row(3, /*slots=*/2);
  auto probe = std::make_shared<test::BookingProbe>();
  probe->before_book = [](int arrival) {
    if (arrival == 1) throw Error("mapper failure inside the lease");
  };
  probe->after_book = [](int arrival) {
    if (arrival == 2) throw Error("mapper failure after the booking");
  };
  ConcurrentRuntimeManager manager(platform, {.mapper = probe},
                                   {.workers = 2, .queue_capacity = 8});
  const auto app = std::make_shared<kpn::Application>(compute_app(2, 0));
  const AdmitOutcome first = manager.submit(app).get();
  EXPECT_EQ(first.status, AdmitStatus::Rejected);
  EXPECT_EQ(first.mapping.failure, "mapper failure inside the lease");
  const AdmitOutcome second = manager.submit(app).get();
  EXPECT_EQ(second.status, AdmitStatus::Rejected);
  EXPECT_EQ(second.mapping.failure, "mapper failure after the booking");
  manager.wait_idle();
  EXPECT_EQ(manager.stats().rejected, 2u);
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(manager.state_snapshot() == core::ResourceState(platform));
  // Both workers still serve requests, and no stripe stayed leased.
  expect_every_stripe_leasable(manager);
}

TEST(RegionLease, ShutdownReleasesLeaseAndBooking) {
  // A plan waits inside its lease, before its booking, while the manager
  // shuts down; a second waits after its booking. Both resolve, and the
  // books hold exactly the survivors.
  const auto platform = big_row(3, /*slots=*/2);
  auto probe = std::make_shared<test::BookingProbe>();
  std::promise<void> both_waiting;
  std::atomic<int> waiting{0};
  std::promise<void> resume;
  std::shared_future<void> resumed = resume.get_future().share();
  auto hold = [&] {
    if (++waiting == 2) both_waiting.set_value();
    resumed.wait_for(std::chrono::seconds(10));
  };
  probe->before_book = [&](int arrival) {
    if (arrival == 1) hold();
  };
  probe->after_book = [&](int arrival) {
    if (arrival == 2) hold();
  };
  ConcurrentRuntimeManager manager(
      platform, {.mapper = probe},
      {.workers = 2, .queue_capacity = 8, .max_batch = 1});
  const auto app = std::make_shared<kpn::Application>(compute_app(2, 0));
  auto a = manager.submit(app);
  auto b = manager.submit(app);
  both_waiting.get_future().wait();
  auto queued = manager.submit(app);

  std::thread closer([&] { manager.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  resume.set_value();
  closer.join();

  EXPECT_EQ(a.get().status, AdmitStatus::Admitted);
  EXPECT_EQ(b.get().status, AdmitStatus::Admitted);
  EXPECT_NE(queued.get().status, AdmitStatus::Waiting);
  const AdmissionStats stats = manager.stats();
  EXPECT_GE(stats.lease_admits, 2u);
  expect_books_balance_and_release_all(platform, manager);
}

}  // namespace
}  // namespace rtsm::runtime
