#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/scenario.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/hiperlan2.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<const core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

/// 4x4 mesh that hosts both the HIPERLAN/2 fixtures and synthetic ARM
/// churn: 2 multi-slot IO tiles named as the receiver expects, 7
/// quad-slot ARM tiles, 7 single-context MONTIUM tiles.
arch::Platform scenario_platform() {
  arch::Platform p("scenario 4x4", 4, 4);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("A/D", io, 0, 1, 64 * 1024, /*process_slots=*/8);
  p.add_tile("Sink", io, 3, 2, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 0; x < 4; ++x) {
      if ((x == 0 && y == 1) || (x == 3 && y == 2)) continue;
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

core::ResourceState replay(const RuntimeManager& manager,
                           const arch::Platform& platform) {
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id),
                         manager.mapping_of(id));
  }
  return replayed;
}

// ------------------------------------------------- latency reservoir ------

TEST(LatencyReservoir, EmptyReportsZero) {
  LatencyReservoir r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.percentile_us(0), 0.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(50), 0.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_us(), 0.0);
}

TEST(LatencyReservoir, SingleSampleIsEveryPercentile) {
  LatencyReservoir r;
  r.record(42.0);
  EXPECT_EQ(r.count(), 1u);
  EXPECT_DOUBLE_EQ(r.percentile_us(0), 42.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(50), 42.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 42.0);
  EXPECT_DOUBLE_EQ(r.mean_us(), 42.0);
}

TEST(LatencyReservoir, ExtremesAreExactAndClamped) {
  LatencyReservoir r;
  for (const double v : {5.0, 1.0, 9.0, 3.0}) r.record(v);
  EXPECT_DOUBLE_EQ(r.percentile_us(0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 9.0);
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(r.percentile_us(-10), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(400), 9.0);
  EXPECT_DOUBLE_EQ(r.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 9.0);
}

TEST(LatencyReservoir, MatchesExactPercentilesBelowCapacity) {
  // Below kCapacity nothing is ever evicted: every percentile must equal
  // the exact order statistic under the same nearest-rank rule.
  LatencyReservoir r;
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    values.push_back(v);
    r.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {10.0, 25.0, 50.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const double exact = values[rank == 0 ? 0 : rank - 1];
    EXPECT_DOUBLE_EQ(r.percentile_us(p), exact) << "p=" << p;
  }
}

TEST(LatencyReservoir, BoundedOver100kSoakWithSanePercentiles) {
  // The satellite bugfix: 100k recorded admissions must not grow the
  // stats. The retained sample stays at kCapacity while count/mean/
  // extremes stay exact; the sampled median of a uniform ramp lands near
  // the true median.
  AdmissionStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.latencies.record(static_cast<double>(i));
  }
  EXPECT_EQ(stats.latencies.count(), 100'000u);
  EXPECT_LE(stats.latencies.sample_size(), LatencyReservoir::kCapacity);
  EXPECT_DOUBLE_EQ(stats.latencies.min_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.latencies.max_us(), 99'999.0);
  EXPECT_NEAR(stats.mean_latency_us(), 49'999.5, 1e-6);
  EXPECT_DOUBLE_EQ(stats.latency_percentile_us(0), 0.0);
  EXPECT_DOUBLE_EQ(stats.latency_percentile_us(100), 99'999.0);
  EXPECT_NEAR(stats.latency_percentile_us(50), 50'000.0, 10'000.0);
}

TEST(LatencyReservoir, ManagerStatsStayBoundedUnderChurn) {
  // Through the real manager: sustained admit/release churn may not grow
  // the latency sample past the reservoir bound.
  const auto platform = test::small_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  test::PipelineSpec spec;
  spec.stages = 1;
  const auto app = test::pipeline_app(spec);
  for (int i = 0; i < 3000; ++i) {
    const auto outcome = manager.admit(app);
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted);
    manager.release(outcome.app_id);
  }
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.latencies.count(), 3000u);
  EXPECT_LE(stats.latencies.sample_size(), LatencyReservoir::kCapacity);
  EXPECT_GT(stats.latency_percentile_us(95), 0.0);
}

// ------------------------------------------- release semantics (unified) --

TEST(ReleaseSemantics, BothManagersRecordUnknownReleaseIdentically) {
  const auto platform = test::small_platform();

  RuntimeManager serial(platform, {.mapper = paper_mapper()});
  EXPECT_FALSE(serial.release(AppId{7}));
  EXPECT_EQ(serial.stats().release_errors, 1u);
  ASSERT_EQ(serial.drain_release_errors().size(), 1u);

  ConcurrentOptions options;
  options.workers = 0;
  ConcurrentRuntimeManager concurrent(platform,
                                      {.mapper = paper_mapper()}, options);
  EXPECT_FALSE(concurrent.release(AppId{7}));
  EXPECT_EQ(concurrent.stats().release_errors, 1u);
  ASSERT_EQ(concurrent.drain_release_errors().size(), 1u);
}

// ------------------------------------------------------- mode switches ----

TEST(ModeSwitch, InPlaceSwitchKeepsInstanceId) {
  const auto platform = workload::make_paper_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  const auto qpsk = workload::hiperlan2_mode_variant(
      workload::Hiperlan2Mode::QPSK);
  const auto started = manager.admit(qpsk);
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;

  const auto next = std::make_shared<kpn::Application>(
      workload::hiperlan2_mode_variant(workload::Hiperlan2Mode::QAM16));
  const SwitchOutcome out = manager.switch_mode(started.app_id, next);
  ASSERT_TRUE(out.status == SwitchStatus::InPlace ||
              out.status == SwitchStatus::Replanned)
      << out.message;
  EXPECT_EQ(out.app_id, started.app_id);
  EXPECT_EQ(manager.running_count(), 1u);
  // The instance now runs the new graph under the same id.
  EXPECT_NE(manager.app_of(started.app_id)->name().find("16-QAM"),
            std::string::npos);
  EXPECT_FALSE(out.structural_total);
  EXPECT_GT(out.pinned + out.moved, 0u);
  EXPECT_EQ(manager.stats().mode_switches, 1u);

  // Bookkeeping survives the switch: replaying the surviving commits
  // reproduces the live state.
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(ModeSwitch, SweepsAllModesInPlace) {
  const auto platform = workload::make_paper_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  const auto first = workload::hiperlan2_mode_variant(
      workload::kHiperlan2Modes.front().mode);
  const auto started = manager.admit(first);
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;

  for (std::size_t i = 1; i < workload::kHiperlan2Modes.size(); ++i) {
    const auto next = std::make_shared<kpn::Application>(
        workload::hiperlan2_mode_variant(workload::kHiperlan2Modes[i].mode));
    const SwitchOutcome out = manager.switch_mode(started.app_id, next);
    ASSERT_TRUE(out.status == SwitchStatus::InPlace ||
                out.status == SwitchStatus::Replanned)
        << workload::kHiperlan2Modes[i].name << ": " << out.message;
    EXPECT_TRUE(manager.state() == replay(manager, platform))
        << workload::kHiperlan2Modes[i].name;
  }
  EXPECT_EQ(manager.stats().mode_switches,
            workload::kHiperlan2Modes.size() - 1);
}

TEST(ModeSwitch, RollsBackOnMisfitKeepingOldMode) {
  const auto platform = test::small_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  test::PipelineSpec spec;
  spec.stages = 2;
  const auto started = manager.admit(test::pipeline_app(spec));
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;
  const core::ResourceState before = manager.state();

  // The "new mode" demands more than a period on every tile type: no
  // feasible mapping exists, so the switch must keep the old mode and
  // leave the platform untouched.
  test::PipelineSpec impossible = spec;
  impossible.big_wcet_cc = 1600;     // 2x the 4 us period at 200 MHz
  impossible.little_wcet_cc = 1600;
  const auto next =
      std::make_shared<kpn::Application>(test::pipeline_app(impossible));
  const SwitchOutcome out = manager.switch_mode(started.app_id, next);
  EXPECT_EQ(out.status, SwitchStatus::RolledBack) << out.message;
  EXPECT_EQ(out.app_id, started.app_id);
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_EQ(manager.stats().switches_rolled_back, 1u);
  // Old graph still booked, bit-for-bit.
  EXPECT_TRUE(manager.state() == before);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(ModeSwitch, UnknownIdIsRecordedNotFatal) {
  const auto platform = test::small_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  const auto next =
      std::make_shared<kpn::Application>(test::pipeline_app({.stages = 1}));
  const SwitchOutcome out = manager.switch_mode(AppId{99}, next);
  EXPECT_EQ(out.status, SwitchStatus::UnknownId);
  EXPECT_EQ(manager.stats().switch_failures, 1u);
}

TEST(ModeSwitch, DeadlineMissAbortsKeepingOldMode) {
  const auto platform = workload::make_paper_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  const auto started = manager.admit(
      workload::hiperlan2_mode_variant(workload::Hiperlan2Mode::QPSK));
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;
  const core::ResourceState before = manager.state();
  const std::string old_name = manager.app_of(started.app_id)->name();

  // A deadline no planner can meet: the switch must abort before its
  // two-phase commit and keep the old mode booked bit-for-bit.
  const auto next = std::make_shared<kpn::Application>(
      workload::hiperlan2_mode_variant(workload::Hiperlan2Mode::QAM16));
  const SwitchOutcome missed =
      manager.switch_mode(started.app_id, next, /*deadline_us=*/1e-6);
  EXPECT_EQ(missed.status, SwitchStatus::DeadlineMiss) << missed.message;
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_EQ(manager.app_of(started.app_id)->name(), old_name);
  EXPECT_EQ(manager.stats().switch_deadline_misses, 1u);
  EXPECT_EQ(manager.stats().mode_switches, 1u);
  EXPECT_TRUE(manager.state() == before);
  EXPECT_TRUE(manager.state() == replay(manager, platform));

  // A generous deadline changes nothing about the success path.
  const SwitchOutcome ok =
      manager.switch_mode(started.app_id, next, /*deadline_us=*/1e9);
  ASSERT_TRUE(ok.status == SwitchStatus::InPlace ||
              ok.status == SwitchStatus::Replanned)
      << ok.message;
  EXPECT_EQ(manager.stats().switch_deadline_misses, 1u);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(ModeSwitch, CommittedSwitchWakesParkedRequests) {
  // A wide->narrow switch frees capacity exactly like a release: a parked
  // request must be retried against it.
  const auto platform =
      test::small_platform(200'000'000, 200'000'000, 64 * 1024,
                           /*io_slots=*/4);
  RuntimeManager manager(
      platform, {.mapper = paper_mapper(),
                 .policy = std::make_shared<RetryAdmission>()});
  test::PipelineSpec wide;
  wide.stages = 4;         // one ~0.9 stage per compute tile: platform full
  wide.big_wcet_cc = 700;
  wide.little_wcet_cc = 700;
  const auto started = manager.admit(test::pipeline_app(wide));
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;

  test::PipelineSpec second = wide;
  second.stages = 1;
  const auto parked = manager.admit(test::pipeline_app(second));
  ASSERT_EQ(parked.status, AdmitStatus::Waiting);
  EXPECT_EQ(manager.waiting_count(), 1u);

  // The narrow mode keeps S0 (name-matched, stays pinned) and drops the
  // other stages — a partial structural diff that vacates three compute
  // tiles' process slots and utilisation.
  test::PipelineSpec narrow = wide;
  narrow.stages = 1;
  narrow.big_wcet_cc = 100;
  narrow.little_wcet_cc = 100;
  const auto next =
      std::make_shared<kpn::Application>(test::pipeline_app(narrow));
  const SwitchOutcome out = manager.switch_mode(started.app_id, next);
  ASSERT_TRUE(out.status == SwitchStatus::InPlace ||
              out.status == SwitchStatus::Replanned)
      << out.message;

  EXPECT_EQ(manager.waiting_count(), 0u);
  const auto outcomes = manager.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].request, parked.request);
  EXPECT_EQ(outcomes[0].status, AdmitStatus::Admitted);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(ModeSwitch, DisplayNamesDistinguishCollidingGraphNames) {
  const auto platform = scenario_platform();
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  const auto app = workload::hiperlan2_mode_variant(
      workload::Hiperlan2Mode::BPSK);
  const auto a = manager.admit(app);
  const auto b = manager.admit(app);  // same graph name, twice
  ASSERT_EQ(a.status, AdmitStatus::Admitted) << a.mapping.failure;
  ASSERT_EQ(b.status, AdmitStatus::Admitted) << b.mapping.failure;
  EXPECT_NE(a.app_id, b.app_id);
  EXPECT_EQ(manager.app_of(a.app_id)->name(),
            manager.app_of(b.app_id)->name());
  EXPECT_NE(manager.display_name(a.app_id), manager.display_name(b.app_id));
  EXPECT_NE(manager.display_name(a.app_id).find('#'), std::string::npos);
}

// --------------------------------------------------------- preemption -----

TEST(Preemption, HighPriorityArrivalEvictsAndVictimIsReparked) {
  const auto platform =
      test::small_platform(200'000'000, 200'000'000, 64 * 1024,
                           /*io_slots=*/4);
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.big_wcet_cc = 700;  // each stage ~0.9 of a BIG/LITTLE tile
  spec.little_wcet_cc = 700;
  const auto app = test::pipeline_app(spec);

  // Fill the platform with two low-priority preemptible apps.
  const auto low1 = manager.admit(app);
  const auto low2 = manager.admit(app);
  ASSERT_EQ(low1.status, AdmitStatus::Admitted) << low1.mapping.failure;
  ASSERT_EQ(low2.status, AdmitStatus::Admitted) << low2.mapping.failure;

  // The high-priority arrival does not fit — but outranks the residents.
  const auto high = manager.admit(app, 0.0, RequestClass{10, false});
  ASSERT_EQ(high.status, AdmitStatus::Admitted) << high.mapping.failure;
  const AdmissionStats& stats = manager.stats();
  EXPECT_EQ(stats.preemption_grants, 1u);
  EXPECT_GE(stats.preemption_evictions, 1u);
  // Victims re-entered the stream as parked requests.
  EXPECT_EQ(manager.waiting_count(), stats.preemption_evictions);
  EXPECT_TRUE(manager.state() == replay(manager, platform));

  // Releasing the high-priority app wakes and readmits a victim.
  const std::uint64_t admitted_before = manager.stats().admitted;
  manager.release(high.app_id);
  manager.drain();
  EXPECT_GT(manager.stats().admitted, admitted_before);
  EXPECT_TRUE(manager.state() == replay(manager, platform));
}

TEST(Preemption, NonPreemptibleAndEqualPriorityAreSafe) {
  const auto platform =
      test::small_platform(200'000'000, 200'000'000, 64 * 1024,
                           /*io_slots=*/4);
  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.big_wcet_cc = 700;
  spec.little_wcet_cc = 700;
  const auto app = test::pipeline_app(spec);

  // Residents that either refuse preemption or match the priority.
  const auto low1 = manager.admit(app, 0.0, RequestClass{5, false});
  const auto low2 = manager.admit(app, 0.0, RequestClass{10, true});
  ASSERT_EQ(low1.status, AdmitStatus::Admitted);
  ASSERT_EQ(low2.status, AdmitStatus::Admitted);

  const auto rejected = manager.admit(app, 0.0, RequestClass{10, false});
  EXPECT_EQ(rejected.status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.stats().preemption_grants, 0u);
  EXPECT_EQ(manager.running_count(), 2u);
}

TEST(Preemption, ConcurrentManagerEvictsUnderTheStateLock) {
  const auto platform =
      test::small_platform(200'000'000, 200'000'000, 64 * 1024,
                           /*io_slots=*/4);
  ConcurrentOptions options;
  options.workers = 0;  // deterministic inline pump
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   options);
  test::PipelineSpec spec;
  spec.stages = 2;
  spec.big_wcet_cc = 700;
  spec.little_wcet_cc = 700;
  const auto app = test::pipeline_app(spec);

  ASSERT_EQ(manager.admit(app).status, AdmitStatus::Admitted);
  ASSERT_EQ(manager.admit(app).status, AdmitStatus::Admitted);
  const auto high = manager.admit(app, 0.0, RequestClass{10, false});
  ASSERT_EQ(high.status, AdmitStatus::Admitted) << high.mapping.failure;
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.preemption_grants, 1u);
  EXPECT_GE(stats.preemption_evictions, 1u);
  EXPECT_EQ(manager.waiting_count(), stats.preemption_evictions);

  // Replay oracle across the eviction.
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id),
                         manager.mapping_of(id));
  }
  EXPECT_TRUE(manager.state_snapshot() == replayed);
  manager.reject_waiting();
}

// ------------------------------------------------------ scenario driver ---

TEST(ScenarioDriver, GeneratedScheduleIsDeterministic) {
  ScheduleParams params;
  params.waves = 10;
  params.arrivals_per_wave = 2;
  const Schedule a = make_mode_churn_schedule(params, 42);
  const Schedule b = make_mode_churn_schedule(params, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GT(a.slots, 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].wave, b.events[i].wave);
    EXPECT_EQ(a.events[i].slot, b.events[i].slot);
    if (a.events[i].app != nullptr) {
      EXPECT_EQ(a.events[i].app->name(), b.events[i].app->name());
    }
    if (a.events[i].next != nullptr) {
      EXPECT_EQ(a.events[i].next->name(), b.events[i].next->name());
    }
  }
}

TEST(ScenarioDriver, RunsModeChurnOnSerialManagerWithCleanOracle) {
  const auto platform = scenario_platform();
  ScheduleParams params;
  params.waves = 12;
  params.arrivals_per_wave = 2;
  params.hiperlan_fraction = 0.5;
  const Schedule schedule = make_mode_churn_schedule(params, 20080310);

  RuntimeManager manager(platform, {.mapper = paper_mapper()});
  SerialTarget target(manager);
  ScenarioDriver driver(target, schedule);
  const ScenarioStats stats = driver.run();

  EXPECT_TRUE(stats.oracle_ok);
  EXPECT_EQ(stats.arrivals, schedule.slots);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.switches, 0u);
  EXPECT_EQ(stats.switches_in_place + stats.switches_replanned +
                stats.switches_rolled_back,
            stats.switches);
  EXPECT_EQ(stats.naive_switch_losses, 0u);
  // In-place switching keeps the switch latency sample populated.
  EXPECT_EQ(stats.switch_latency.count(), stats.switches);
}

TEST(ScenarioDriver, NaiveReplayNeverBeatsInPlaceOnLosses) {
  const auto platform = scenario_platform();
  ScheduleParams params;
  params.waves = 12;
  params.arrivals_per_wave = 2;
  params.hiperlan_fraction = 0.5;
  const Schedule schedule = make_mode_churn_schedule(params, 20080310);

  RuntimeManager inplace_mgr(platform, {.mapper = paper_mapper()});
  SerialTarget inplace_target(inplace_mgr);
  const ScenarioStats inplace =
      ScenarioDriver(inplace_target, schedule).run();

  RuntimeManager naive_mgr(platform, {.mapper = paper_mapper()});
  SerialTarget naive_target(naive_mgr);
  ScenarioOptions naive_options;
  naive_options.naive_switch = true;
  const ScenarioStats naive =
      ScenarioDriver(naive_target, schedule, naive_options).run();

  EXPECT_TRUE(inplace.oracle_ok);
  EXPECT_TRUE(naive.oracle_ok);
  // The in-place path can roll back; naive can only lose the app.
  EXPECT_EQ(inplace.naive_switch_losses, 0u);
  EXPECT_GE(naive.naive_switch_losses + naive.admitted,
            inplace.admitted - inplace.rejected);
}

TEST(ScenarioDriver, DrivesConcurrentManagerInPumpMode) {
  const auto platform = scenario_platform();
  ScheduleParams params;
  params.waves = 8;
  params.arrivals_per_wave = 2;
  params.hiperlan_fraction = 0.5;
  const Schedule schedule = make_mode_churn_schedule(params, 99);

  ConcurrentOptions options;
  options.workers = 0;
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   options);
  ConcurrentTarget target(manager);
  const ScenarioStats stats = ScenarioDriver(target, schedule).run();

  EXPECT_TRUE(stats.oracle_ok);
  EXPECT_EQ(stats.arrivals, schedule.slots);
  EXPECT_GT(stats.switches, 0u);
}

// --------------------------------------------- 8-thread mode-churn (TSan) --

TEST(ScenarioStress, EightThreadModeChurn) {
  const auto platform = scenario_platform();
  ConcurrentOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10;
  std::atomic<std::uint32_t> switches_attempted{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      std::vector<AppId> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const double dice = rng.uniform01();
        if (dice < 0.5 || mine.empty()) {
          const auto mode =
              workload::kHiperlan2Modes[rng.pick_index(
                                            workload::kHiperlan2Modes.size())]
                  .mode;
          const auto cls = rng.bernoulli(0.2) ? RequestClass{5, false}
                                              : RequestClass{};
          const auto outcome = manager.admit(
              workload::hiperlan2_mode_variant(mode), 0.0, cls);
          if (outcome.status == AdmitStatus::Admitted) {
            mine.push_back(outcome.app_id);
          }
        } else if (dice < 0.8) {
          const auto mode =
              workload::kHiperlan2Modes[rng.pick_index(
                                            workload::kHiperlan2Modes.size())]
                  .mode;
          const auto next = std::make_shared<kpn::Application>(
              workload::hiperlan2_mode_variant(mode));
          const std::size_t pick = rng.pick_index(mine.size());
          const SwitchOutcome out = manager.switch_mode(mine[pick], next);
          switches_attempted.fetch_add(1);
          if (out.status == SwitchStatus::UnknownId) {
            mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
          }
        } else {
          const std::size_t pick = rng.pick_index(mine.size());
          manager.release(mine[pick]);  // may double-release a preempted id
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  manager.wait_idle();
  manager.reject_waiting();
  manager.wait_idle();

  EXPECT_GT(switches_attempted.load(), 0u);
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.mode_switches, switches_attempted.load());

  // The invariant everything hangs on: after arbitrary concurrent churn
  // of admits, releases, switches and preemptions, replaying the
  // surviving commits reproduces the live state exactly.
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id),
                         manager.mapping_of(id));
  }
  EXPECT_TRUE(manager.state_snapshot() == replayed);
}

}  // namespace
}  // namespace rtsm::runtime
