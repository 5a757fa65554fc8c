#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "core/mapper.hpp"
#include "core/portfolio.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/stats_report.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<const core::MapperRegistry> shared_registry() {
  return std::make_shared<const core::MapperRegistry>(
      baselines::builtin_mappers());
}

core::PortfolioOptions race_of(std::vector<std::string> names,
                               core::PortfolioSelection selection,
                               double budget_us = 0.0) {
  core::PortfolioOptions portfolio;
  portfolio.strategies = std::move(names);
  portfolio.selection = selection;
  portfolio.budget_us = budget_us;
  return portfolio;
}

// ------------------------------------------------ registry round trips ---

TEST(Portfolio, NewMappersRoundTripThroughTheRegistry) {
  const auto registry = shared_registry();
  const auto platform = test::small_platform();
  const auto app = test::pipeline_app({.stages = 2});
  for (const std::string name : {"list", "series-parallel", "genetic"}) {
    ASSERT_TRUE(registry->contains(name)) << name;
    EXPECT_FALSE(registry->description(name).empty()) << name;
    const auto mapper = registry->create(name);
    EXPECT_EQ(mapper->name(), name);
    const auto result = mapper->map(app, platform);
    EXPECT_TRUE(result.success) << name << ": " << result.failure;
    EXPECT_TRUE(core::mapping_fits(core::ResourceState(platform), app,
                                   result.mapping))
        << name;
  }
}

// ------------------------------------------------- serial-manager races ---

TEST(Portfolio, SerialSelectionIsSeededDeterministic) {
  // Two identically configured managers fed the identical arrival sequence
  // pick the identical winners with identical outcome figures: every racer
  // (including the genetic mapper) derives its randomness from fixed seeds.
  const auto registry = shared_registry();
  const auto run = [&](std::vector<std::string>& winners,
                       std::vector<double>& energies) {
    const auto platform = test::small_platform(
        200'000'000, 200'000'000, 64 * 1024, /*io_slots=*/8);
    RuntimeManager manager(
        platform,
        {.portfolio = race_of({"list", "series-parallel", "genetic", "spatial"},
                              core::PortfolioSelection::BestEnergy),
         .registry = registry});
    for (std::uint32_t stages = 1; stages <= 3; ++stages) {
      const auto outcome =
          manager.admit(test::pipeline_app({.stages = stages}));
      ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
          << outcome.mapping.failure;
      winners.push_back(outcome.portfolio_winner);
      energies.push_back(outcome.mapping.energy_nj_per_symbol);
      ASSERT_TRUE(manager.release(outcome.app_id));
    }
    const AdmissionStats stats = manager.stats();
    EXPECT_EQ(stats.portfolio_races, 3u);
    EXPECT_EQ(stats.portfolio_fallbacks, 0u);
    ASSERT_EQ(stats.portfolio.size(), 4u);
    EXPECT_EQ(stats.portfolio[0].name, "list");
    EXPECT_EQ(stats.portfolio[3].name, "spatial");
  };
  std::vector<std::string> winners_a, winners_b;
  std::vector<double> energies_a, energies_b;
  run(winners_a, energies_a);
  run(winners_b, energies_b);
  EXPECT_EQ(winners_a, winners_b);
  EXPECT_EQ(energies_a, energies_b);
  for (const std::string& winner : winners_a) EXPECT_FALSE(winner.empty());
}

TEST(Portfolio, FirstFeasibleCommitsTheEarliestStrategy) {
  // Sequential serial race: the first configured strategy that produces a
  // feasible plan wins, and its name lands on the outcome and in stats.
  const auto platform = test::small_platform();
  RuntimeManager manager(
      platform, {.portfolio = race_of({"spatial", "list"},
                                      core::PortfolioSelection::FirstFeasible),
                 .registry = shared_registry()});
  const auto outcome = manager.admit(test::pipeline_app({.stages = 2}));
  ASSERT_EQ(outcome.status, AdmitStatus::Admitted) << outcome.mapping.failure;
  EXPECT_EQ(outcome.portfolio_winner, "spatial");

  const AdmissionStats stats = manager.stats();
  ASSERT_EQ(stats.portfolio.size(), 2u);
  EXPECT_EQ(stats.portfolio[0].wins, 1u);
  EXPECT_EQ(stats.portfolio[0].runs, 1u);
  // The loser never started: the serial race stops offering strategies
  // once a first-feasible winner cancelled the race.
  EXPECT_EQ(stats.portfolio[1].runs, 0u);
  EXPECT_EQ(stats.portfolio[1].wins, 0u);
}

TEST(Portfolio, ExhaustedBudgetFallsBackToThePrimaryMapper) {
  // A sub-nanosecond budget expires before any strategy may start: the
  // race yields no winner and the manager admits through one unbudgeted
  // run of its primary (spatial) mapper.
  const auto platform = test::small_platform();
  RuntimeManager manager(
      platform,
      {.portfolio = race_of({"list", "genetic"},
                            core::PortfolioSelection::BestEnergy,
                            /*budget_us=*/1e-9),
       .registry = shared_registry()});
  const auto outcome = manager.admit(test::pipeline_app({.stages = 2}));
  ASSERT_EQ(outcome.status, AdmitStatus::Admitted) << outcome.mapping.failure;
  EXPECT_TRUE(outcome.portfolio_winner.empty());

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.portfolio_races, 1u);
  EXPECT_EQ(stats.portfolio_fallbacks, 1u);
  for (const PortfolioStrategyStats& s : stats.portfolio) {
    EXPECT_EQ(s.runs, 0u) << s.name;
    EXPECT_EQ(s.wins, 0u) << s.name;
  }
}

TEST(Portfolio, EnabledPortfolioRequiresARegistry) {
  const auto platform = test::small_platform();
  EXPECT_THROW(
      RuntimeManager(
          platform,
          {.portfolio = race_of({"spatial"},
                                core::PortfolioSelection::FirstFeasible)}),
      Error);
  EXPECT_THROW(
      ConcurrentRuntimeManager(
          platform,
          {.portfolio = race_of({"spatial"},
                                core::PortfolioSelection::FirstFeasible)},
          {.workers = 0}),
      Error);
}

TEST(Portfolio, UnknownStrategyNameIsRejectedAtConstruction) {
  const auto platform = test::small_platform();
  EXPECT_THROW(
      RuntimeManager(
          platform,
          {.portfolio = race_of({"no-such-mapper"},
                                core::PortfolioSelection::FirstFeasible),
           .registry = shared_registry()}),
      Error);
}

// --------------------------------------------- concurrent-manager races ---

void expect_serial_replay_matches(const arch::Platform& platform,
                                  const ConcurrentRuntimeManager& manager) {
  core::ResourceState replayed(platform);
  for (const AppId id : manager.running_ids()) {
    core::commit_mapping(replayed, *manager.app_of(id), manager.mapping_of(id));
  }
  EXPECT_TRUE(manager.state_snapshot() == replayed);
}

TEST(Portfolio, ConcurrentRaceFansOutAcrossTheWorkerPool) {
  // The TSan target: 8 client threads churn admissions while every
  // shape-library miss races four strategies across 4 workers. The final
  // state must equal a serial replay of the surviving commits.
  const auto platform = test::small_platform(
      200'000'000, 200'000'000, 64 * 1024, /*io_slots=*/16);
  ConcurrentRuntimeManager manager(
      platform,
      {.portfolio = race_of({"spatial", "list", "series-parallel", "genetic"},
                            core::PortfolioSelection::BestEnergy),
       .registry = shared_registry()},
      {.workers = 4, .queue_capacity = 32});
  const auto app =
      std::make_shared<kpn::Application>(test::pipeline_app({.stages = 1}));

  constexpr int kThreads = 8;
  constexpr int kIterations = 6;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (int i = 0; i < kIterations; ++i) {
        const auto outcome = manager.admit(*app);
        if (outcome.status == AdmitStatus::Admitted) {
          EXPECT_FALSE(outcome.portfolio_winner.empty());
          mine.push_back(outcome.app_id);
        }
        if ((t + i) % 2 == 0 && !mine.empty()) {
          EXPECT_TRUE(manager.release(mine.back()));
          mine.pop_back();
        }
      }
      for (const AppId id : mine) EXPECT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, kThreads * kIterations);
  EXPECT_GT(stats.portfolio_races, 0u);
  ASSERT_EQ(stats.portfolio.size(), 4u);
  std::uint64_t wins = 0;
  for (const PortfolioStrategyStats& s : stats.portfolio) wins += s.wins;
  EXPECT_EQ(wins + stats.portfolio_fallbacks, stats.portfolio_races);
  expect_serial_replay_matches(platform, manager);
}

TEST(Portfolio, ConcurrentPumpModeRacesDeterministically) {
  // workers == 0: the race runs entirely on the pump thread (the owner
  // claims every unclaimed strategy), twice with identical results.
  const auto run = [](std::vector<std::string>& winners) {
    const auto platform = test::small_platform(
        200'000'000, 200'000'000, 64 * 1024, /*io_slots=*/8);
    ConcurrentRuntimeManager manager(
        platform,
        {.portfolio =
             race_of({"list", "series-parallel", "genetic", "spatial"},
                     core::PortfolioSelection::BestEnergy),
         .registry = shared_registry()},
        {.workers = 0, .queue_capacity = 16});
    for (std::uint32_t stages = 1; stages <= 3; ++stages) {
      const auto outcome =
          manager.admit(test::pipeline_app({.stages = stages}));
      ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
          << outcome.mapping.failure;
      winners.push_back(outcome.portfolio_winner);
      ASSERT_TRUE(manager.release(outcome.app_id));
    }
  };
  std::vector<std::string> winners_a, winners_b;
  run(winners_a);
  run(winners_b);
  EXPECT_EQ(winners_a, winners_b);
}

// ------------------------------------------------------- stats report -----

TEST(Portfolio, StatsReportSerializesEverySection) {
  const auto platform = test::small_platform();
  RuntimeManager manager(
      platform, {.portfolio = race_of({"spatial", "list"},
                                      core::PortfolioSelection::BestEnergy),
                 .registry = shared_registry()});
  const auto outcome = manager.admit(test::pipeline_app({.stages = 2}));
  ASSERT_EQ(outcome.status, AdmitStatus::Admitted);
  EXPECT_FALSE(manager.release(AppId{404}));  // seed one release error

  const std::string json = manager.stats_report().to_json();
  for (const std::string key :
       {"\"admission\"", "\"portfolio\"", "\"races\":1", "\"strategies\"",
        "\"name\":\"spatial\"", "\"name\":\"list\"", "\"verification\"",
        "\"shape_library\"", "\"release_errors\"", "\"defrag\"",
        "\"switches\"", "\"preemption\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Draining through the report empties the release-error queue.
  EXPECT_TRUE(manager.drain_release_errors().empty());
}

}  // namespace
}  // namespace rtsm::runtime
