// The benchmark's two workloads: the concurrent pool's shape-miss path and
// the fleet's write path. Each is a closed loop: a client sends its next
// call only when the previous one returned, so a slower program receives
// less load instead of a growing queue, and every figure is a property of
// the program, not of a backlog.
//
// A run is kRounds rounds. Each round sets up a fresh manager (timed into
// setup_s), runs its share of the timed phase on it, and passes the
// correctness gate before the next round replaces it. The set-ups are thus
// spread over the whole run, like the timed calls, instead of sampling the
// machine's speed in one burst at the start.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/fleet.hpp"
#include "runtime/runtime_manager.hpp"
#include "runtime/scenario.hpp"
#include "shapes/library.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace admitbench {

using namespace rtsm;

namespace {

/// Rounds per run; setup_s is the median of their set-ups.
constexpr int kRounds = 5;

/// Seed of every workload's warm-up inputs. The warm-up is the same for
/// every run seed, so set-up time measures the program and not the work a
/// seed happens to draw; the timed phase is driven by the run seed.
constexpr std::uint64_t kWarmUpSeed = 20080310;

/// How long a client waits for one future before the gate declares it
/// lost.
constexpr auto kResolveTimeout = std::chrono::seconds(60);

/// Spans hashed into a single-client run's outcome digest. The first
/// round never ends before this many calls, so the digest always covers
/// them.
constexpr std::size_t kDigestSpans = 2000;

/// Admissions the timed phase needs at least, so admit_p99_us has 10
/// samples beyond it.
constexpr std::uint64_t kMinAdmissions = 1000;

using AppPtr = std::shared_ptr<const kpn::Application>;

/// Mixes a run seed with a stream number (client, schedule chunk).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

StepTally take_all(const std::shared_ptr<StepTimedMapper>& timed) {
  return timed ? timed->take_all() : StepTally{};
}

/// The mapper of a run: the real SpatialMapper, or its step-timed replica
/// in a traced run.
struct MapperChoice {
  std::shared_ptr<const core::Mapper> mapper;
  std::shared_ptr<StepTimedMapper> timed;
};

MapperChoice choose_mapper(bool traced) {
  MapperChoice choice;
  if (traced) {
    choice.timed = std::make_shared<StepTimedMapper>();
    choice.mapper = choice.timed;
  } else {
    choice.mapper = std::make_shared<core::SpatialMapper>();
  }
  return choice;
}

/// Round @p round's timed phase, begun at @p start, ends after its share
/// of --seconds, once the first round has made the calls the digest covers
/// and the last has brought the run's admissions to kMinAdmissions.
/// @p admissions and @p calls count from the start of the run.
bool round_over(const RunConfig& config, int round, Clock::time_point start,
                std::uint64_t admissions, std::size_t calls) {
  if (seconds_between(start, Clock::now()) < config.seconds / kRounds) {
    return false;
  }
  if (round == 0 && calls < kDigestSpans) return false;
  return round < kRounds - 1 || admissions >= kMinAdmissions;
}

/// The X8/X11 6x6 mesh: 10 hex-slot ARM and 10 single-context MONTIUM
/// tiles interleaved, IO tiles named as the HIPERLAN/2 fixtures expect.
arch::Platform make_mesh6() {
  arch::Platform p("admitbench 6x6", 6, 6, arch::NocParams{});
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

/// The X10 16x16 mesh: two IO corners, the rest alternating quad-slot ARM
/// and single-context MONTIUM tiles.
arch::Platform make_mesh16() {
  constexpr std::uint32_t n = 16;
  arch::Platform p("admitbench 16x16", n, n);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("SRC", io, 0, 0, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, n - 1, n - 1, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
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

/// Replaces @p state by a fresh one from @p make, which constructs it and
/// runs its warm-up into the given logs, and times that into setup_s, less
/// the seconds @p make reports spent generating load. The
/// previous round's state is gone first, so only one is ever live. For a
/// deterministic workload every round's warm-up must produce the same
/// outcomes, since its inputs are the same.
template <class State>
void set_up(
    std::unique_ptr<State>& state,
    const std::function<std::unique_ptr<State>(std::vector<ClientLog>&,
                                               double&)>& make,
    bool deterministic, PhaseRecord& record, Gate& gate) {
  state.reset();
  // Hand the freed state's memory back to the system, so the rounds'
  // states do not pile up in the allocator's arenas and peak_rss_mb stays
  // the footprint of one.
  malloc_trim(0);
  std::vector<ClientLog> warm_up;
  double generation_s = 0.0;
  const Clock::time_point start = Clock::now();
  state = make(warm_up, generation_s);
  record.setup_s.push_back(seconds_between(start, Clock::now()) -
                           generation_s);
  if (!deterministic) return;
  const std::uint64_t digest = warm_up.at(0).digest();
  if (record.setup_s.size() == 1) record.warm_up_digest = digest;
  gate.expect(digest == record.warm_up_digest,
              "warm-up outcomes differ between rounds");
}

/// Admission requests and admissions the clients have logged.
std::pair<std::uint64_t, std::uint64_t> admissions_of(
    const std::vector<ClientLog>& logs) {
  std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
  for (const ClientLog& log : logs) {
    sum.first += log.admissions;
    sum.second += log.admitted;
  }
  return sum;
}

/// The manager's counters agree with the clients over one round's timed
/// phase: every request they sent was offered once, each offer was
/// admitted or rejected, and the admissions match.
void check_tally(const Counters& before, const Counters& after,
                 std::pair<std::uint64_t, std::uint64_t> logged_before,
                 std::pair<std::uint64_t, std::uint64_t> logged_after,
                 const std::string& label, Gate& gate) {
  const std::uint64_t offered = after.offered - before.offered;
  const std::uint64_t admitted = after.admitted - before.admitted;
  const std::uint64_t rejected = after.rejected - before.rejected;
  gate.expect(offered == admitted + rejected,
              label + ": offered != admitted + rejected");
  gate.expect(offered == logged_after.first - logged_before.first &&
                  admitted == logged_after.second - logged_before.second,
              label + ": the manager offered " + std::to_string(offered) +
                  " and admitted " + std::to_string(admitted) +
                  ", the clients sent " +
                  std::to_string(logged_after.first - logged_before.first) +
                  " and saw " +
                  std::to_string(logged_after.second - logged_before.second) +
                  " admitted");
}

void sort_ids(std::vector<AppId>& ids) { std::sort(ids.begin(), ids.end()); }

// ============================================================ miss-mesh16 ==

constexpr std::uint32_t kMissClients = 3;
constexpr std::uint32_t kMissWorkers = 3;
/// Per-client live cap: about 40 applications live across the clients.
constexpr std::size_t kMissLivePerClient = 13;
constexpr std::size_t kMissWarmUpPerClient = 20;

AppPtr make_miss_app(Rng& rng, std::uint32_t client, std::uint64_t serial) {
  workload::SyntheticAppParams params;
  params.process_count = static_cast<std::uint32_t>(rng.uniform_int(3, 8));
  params.with_fixtures = false;
  params.tile_types = {"ARM", "MONTIUM"};
  std::string name = "c";
  name += std::to_string(client);
  name += '-';
  name += std::to_string(serial);
  return std::make_shared<const kpn::Application>(
      workload::make_synthetic_app(rng, params, name));
}

/// One closed-loop client of the concurrent pool: it releases a random
/// application of its own while it holds kMissLivePerClient, then submits
/// the next one and waits for its future.
struct MissClient {
  std::vector<std::pair<AppId, AppPtr>> live;

  /// One release-then-admit step; false when a future was lost.
  bool step(runtime::ConcurrentRuntimeManager& manager,
            const std::shared_ptr<StepTimedMapper>& timed, const AppPtr& app,
            Rng& choices, ClientLog& log) {
    while (live.size() >= kMissLivePerClient) {
      const std::size_t victim = choices.pick_index(live.size());
      const Clock::time_point start = Clock::now();
      const bool ok = manager.release(live[victim].first);
      log.release(start, Clock::now(), ok, {});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const Clock::time_point start = Clock::now();
    std::future<runtime::AdmitOutcome> future = manager.submit(app);
    if (future.wait_for(kResolveTimeout) != std::future_status::ready) {
      log.lost(start, Clock::now());
      return false;
    }
    const runtime::AdmitOutcome outcome = future.get();
    const Clock::time_point end = Clock::now();
    log.admit(start, end, outcome,
              timed ? timed->take(app.get()) : StepTally{});
    if (outcome.status == runtime::AdmitStatus::Admitted) {
      live.emplace_back(outcome.app_id, app);
    }
    return true;
  }
};

struct MissState {
  MapperChoice mapper;
  std::unique_ptr<runtime::ConcurrentRuntimeManager> manager;
  std::vector<MissClient> clients;
};

}  // namespace

RunResult run_miss_mesh16(const RunConfig& config) {
  RunResult result;
  PhaseRecord record;
  Gate& gate = result.gate;
  const arch::Platform platform = make_mesh16();

  // Load generation stays outside the set-up timer: the warm-up
  // applications are drawn once, and each round's warm-up submits them.
  std::vector<std::vector<AppPtr>> warm_apps(kMissClients);
  for (std::uint32_t c = 0; c < kMissClients; ++c) {
    Rng apps(stream_seed(kWarmUpSeed, 2 * c));
    for (std::size_t i = 0; i < kMissWarmUpPerClient; ++i) {
      warm_apps[c].push_back(make_miss_app(apps, c, i));
    }
  }

  const auto make = [&](std::vector<ClientLog>& warm_up, double&) {
    auto state = std::make_unique<MissState>();
    state->mapper = choose_mapper(config.traced);
    state->manager = std::make_unique<runtime::ConcurrentRuntimeManager>(
        platform, runtime::ManagerOptions{.mapper = state->mapper.mapper},
        runtime::ConcurrentOptions{.workers = kMissWorkers});
    state->clients.resize(kMissClients);
    for (std::uint32_t c = 0; c < kMissClients; ++c) {
      warm_up.emplace_back(c, false, Clock::now(), SIZE_MAX);
    }
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kMissClients; ++c) {
      threads.emplace_back([&, c] {
        Rng choices(stream_seed(kWarmUpSeed, 2 * c + 1));
        for (const AppPtr& app : warm_apps[c]) {
          if (!state->clients[c].step(*state->manager, state->mapper.timed,
                                      app, choices, warm_up[c])) {
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return state;
  };

  // Each client's timed stream of applications and releases runs on
  // across the rounds.
  std::vector<Rng> app_streams;
  std::vector<Rng> choices;
  std::vector<std::uint64_t> serials(kMissClients, kMissWarmUpPerClient);
  const Clock::time_point origin = Clock::now();
  for (std::uint32_t c = 0; c < kMissClients; ++c) {
    app_streams.emplace_back(stream_seed(config.seed, 2 * c));
    choices.emplace_back(stream_seed(config.seed, 2 * c + 1));
    record.logs.emplace_back(c, config.traced, origin, kDigestSpans);
  }
  std::atomic<std::uint64_t> admissions{0};
  std::unique_ptr<MissState> state;
  for (int round = 0; round < kRounds && gate.failures.empty(); ++round) {
    set_up<MissState>(state, make, /*deterministic=*/false, record, gate);
    runtime::ConcurrentRuntimeManager& manager = *state->manager;

    Counters before;
    Counters after;
    before.add(manager.stats());
    before.read_mapper(manager.mapper());
    const auto logged = admissions_of(record.logs);
    const Clock::time_point start = Clock::now();
    std::atomic<bool> stop{false};
    std::atomic<bool> lost{false};
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kMissClients; ++c) {
      threads.emplace_back([&, c] {
        MissClient& client = state->clients[c];
        ClientLog& log = record.logs[c];
        while (!stop.load()) {
          const AppPtr app = make_miss_app(app_streams[c], c, serials[c]++);
          if (!client.step(manager, state->mapper.timed, app, choices[c],
                           log)) {
            lost = true;
            stop = true;
            return;
          }
          // The concurrent digest is only reported, so the call count
          // does not hold the round open.
          const std::uint64_t done = admissions.fetch_add(1) + 1;
          if (round_over(config, round, start, done, kDigestSpans)) {
            stop = true;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    record.timed_s += seconds_between(start, Clock::now());
    manager.wait_idle();
    after.add(manager.stats());
    after.read_mapper(manager.mapper());
    record.counters.accumulate(after, before);

    // Gate: every future resolved, the books balance, the clients' live
    // sets are exactly the running set, and every offer was answered.
    const std::string label = "miss-mesh16 round " + std::to_string(round);
    gate.expect(!lost, label + ": an admission future never resolved");
    std::vector<Survivor> survivors;
    std::vector<AppId> running = manager.running_ids();
    for (const AppId id : running) {
      survivors.emplace_back(manager.app_of(id), manager.mapping_of(id));
    }
    check_books(platform, manager.state_snapshot(), survivors, label, gate);
    std::vector<AppId> held;
    for (const MissClient& client : state->clients) {
      for (const auto& entry : client.live) held.push_back(entry.first);
    }
    sort_ids(held);
    sort_ids(running);
    gate.expect(held == running,
                label + ": running set differs from the clients' live set");
    gate.expect(manager.waiting_count() == 0, label + ": requests parked");
    check_tally(before, after, logged, admissions_of(record.logs), label,
                gate);
  }

  result.deterministic = false;
  summarise(config, record, result);
  return result;
}

// ======================================================== fleet-modechurn ==

namespace {

constexpr std::size_t kFleetPlatforms = 4;

/// Waves of each schedule chunk.
constexpr std::uint32_t kFleetChunkWaves = 40;
/// Chunks of the warm-up. The verification cache takes about ten to see
/// the placements that recur; a shorter warm-up leaves each round's first
/// second re-verifying them. Those ten are mostly CSDF simulation; the
/// other ten are the admission, switch and defrag work of the timed phase,
/// so set-up time reacts to the machine's speed as the timed calls do.
constexpr std::uint64_t kFleetWarmUpChunks = 20;

/// One chunk of the endless mode-churn schedule. Every arrival is a
/// HIPERLAN/2 mode, the carrier of mode switches. With X11's mix of 40%
/// modes and 60% unique synthetic chains, the synthetic arrivals and their
/// migrations overflow the shared verification cache, whose FIFO eviction
/// then drops the hot HIPERLAN/2 entries; each re-verification costs a
/// 10-90 ms CSDF simulation, and a run's figures depend on how many a
/// seed's schedule triggers (admits/s 250-1250 between seeds). README.md
/// records that regime; it needs its own workload once it is fixed.
runtime::Schedule make_fleet_chunk(std::uint64_t seed, std::uint64_t chunk,
                                   std::uint32_t waves) {
  runtime::ScheduleParams params;
  params.waves = waves;
  params.arrivals_per_wave = 2;
  params.hiperlan_fraction = 1.0;
  params.switch_prob = 0.4;
  params.lifetime_min = 5;
  params.lifetime_max = 12;
  return runtime::make_mode_churn_schedule(params, stream_seed(seed, chunk));
}

struct FleetState {
  MapperChoice mapper;
  std::unique_ptr<runtime::FleetManager> fleet;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  bool lost = false;
  /// Fleet ids of the schedule chunk's live slots.
  std::vector<std::optional<AppId>> slots;

  /// Walks one schedule chunk event by event, with one defrag tick per
  /// wave, then releases what is still live. Stops early (returning false)
  /// once @p keep_going says so between events.
  bool walk(const runtime::Schedule& schedule, ClientLog& log,
            const std::function<bool()>& keep_going) {
    slots.assign(schedule.slots, std::nullopt);
    std::size_t next = 0;
    for (std::uint32_t wave = 0; wave < schedule.waves; ++wave) {
      for (; next < schedule.events.size() &&
             schedule.events[next].wave == wave;
           ++next) {
        if (!keep_going()) return false;
        apply(schedule.events[next], log);
        if (lost) return false;
      }
      const Clock::time_point start = Clock::now();
      fleet->defrag_tick();
      log.tick(start, Clock::now(), take_all(mapper.timed));
    }
    for (std::optional<AppId>& slot : slots) {
      if (!slot) continue;
      const Clock::time_point start = Clock::now();
      const bool ok = fleet->release(*slot);
      log.release(start, Clock::now(), ok, take_all(mapper.timed));
      slot.reset();
    }
    return true;
  }

  void apply(const runtime::ScenarioEvent& ev, ClientLog& log) {
    std::optional<AppId>& slot = slots[ev.slot];
    const Clock::time_point start = Clock::now();
    switch (ev.kind) {
      case runtime::ScenarioEvent::Kind::Arrive: {
        ++offered;
        std::future<runtime::AdmitOutcome> future =
            fleet->submit(ev.app, ev.deadline_us, ev.cls);
        fleet->pump();
        if (future.wait_for(kResolveTimeout) != std::future_status::ready) {
          log.lost(start, Clock::now());
          lost = true;
          return;
        }
        const runtime::AdmitOutcome outcome = future.get();
        log.admit(start, Clock::now(), outcome, take_all(mapper.timed));
        if (outcome.status == runtime::AdmitStatus::Admitted) {
          ++admitted;
          slot = outcome.app_id;
        } else if (outcome.status == runtime::AdmitStatus::Rejected) {
          ++rejected;
        }
        break;
      }
      case runtime::ScenarioEvent::Kind::Depart: {
        if (!slot) return;  // the arrival was rejected
        const bool ok = fleet->release(*slot);
        log.release(start, Clock::now(), ok, take_all(mapper.timed));
        slot.reset();
        break;
      }
      case runtime::ScenarioEvent::Kind::SwitchMode: {
        if (!slot) return;
        const runtime::SwitchOutcome outcome =
            fleet->switch_mode(*slot, ev.next, ev.deadline_us);
        log.switched(start, Clock::now(), outcome, take_all(mapper.timed));
        break;
      }
    }
  }
};

void read_fleet(runtime::FleetManager& fleet, Counters& counters) {
  for (std::size_t p = 0; p < fleet.platform_count(); ++p) {
    counters.add(fleet.manager(p).stats());
  }
  counters.read_mapper(fleet.manager(0).mapper());
  counters.fleet = fleet.fleet_stats();
}

}  // namespace

RunResult run_fleet_modechurn(const RunConfig& config) {
  RunResult result;
  PhaseRecord record;
  Gate& gate = result.gate;
  const arch::Platform platform = make_mesh6();
  const auto make = [&](std::vector<ClientLog>& warm_up,
                        double& generation_s) {
    auto state = std::make_unique<FleetState>();
    state->mapper = choose_mapper(config.traced);
    runtime::FleetOptions options;
    options.platforms = kFleetPlatforms;
    // Pump mode: the client's thread dispatches inline. With a dispatcher
    // thread, every admission waits for that thread to wake, and where the
    // scheduler places it set admit_p50_us to ~95 or ~200 us per process,
    // for the whole process, whatever the run length.
    options.workers = 0;
    options.manager.mapper = state->mapper.mapper;
    options.manager.shapes = std::make_shared<shapes::ShapeLibrary>(platform);
    state->fleet = std::make_unique<runtime::FleetManager>(platform, options);
    warm_up.emplace_back(0, false, Clock::now(), SIZE_MAX);
    // Chunks are generated one at a time, as in the timed phase, so a
    // whole warm-up schedule is never held in memory.
    for (std::uint64_t chunk = 0; chunk < kFleetWarmUpChunks; ++chunk) {
      const Clock::time_point gen_start = Clock::now();
      const runtime::Schedule schedule =
          make_fleet_chunk(kWarmUpSeed, chunk, kFleetChunkWaves);
      generation_s += seconds_between(gen_start, Clock::now());
      state->walk(schedule, warm_up[0], [] { return true; });
    }
    return state;
  };

  ClientLog& log =
      record.logs.emplace_back(0, config.traced, Clock::now(), kDigestSpans);
  // The timed schedule runs on across the rounds: its chunks are
  // generated as the walk reaches them, and generation time is taken out
  // of the timed phase. A round that ends inside a chunk drops the rest of
  // it.
  std::uint64_t chunk = 0;
  std::unique_ptr<FleetState> state;
  for (int round = 0; round < kRounds && gate.failures.empty(); ++round) {
    set_up<FleetState>(state, make, /*deterministic=*/true, record, gate);
    runtime::FleetManager& fleet = *state->fleet;

    Counters before;
    Counters after;
    read_fleet(fleet, before);
    const std::uint64_t rejected = state->rejected;
    const auto logged = admissions_of(record.logs);
    const Clock::time_point start = Clock::now();
    double generation_s = 0.0;
    const auto keep_going = [&] {
      const auto generation = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(generation_s));
      return !round_over(config, round, start + generation, log.admissions,
                         log.calls);
    };
    for (;;) {
      const Clock::time_point gen_start = Clock::now();
      const runtime::Schedule schedule =
          make_fleet_chunk(config.seed, ++chunk, kFleetChunkWaves);
      generation_s += seconds_between(gen_start, Clock::now());
      if (!state->walk(schedule, log, keep_going)) break;
    }
    record.timed_s += seconds_between(start, Clock::now()) - generation_s;
    fleet.wait_idle();
    read_fleet(fleet, after);
    record.counters.accumulate(after, before);

    // Gate, per platform and for the fleet. A platform's offers include
    // spill-over retries, so the client's tally over the round is checked
    // against the fleet's dispatches (one per request) and final
    // rejections, and against the admissions summed over the platforms.
    const std::string label = "fleet-modechurn round " + std::to_string(round);
    gate.expect(!state->lost, label + ": an admission never resolved");
    std::uint64_t platform_admitted = 0;
    for (std::size_t p = 0; p < fleet.platform_count(); ++p) {
      runtime::ConcurrentRuntimeManager& manager = fleet.manager(p);
      std::vector<Survivor> survivors;
      for (const AppId id : manager.running_ids()) {
        survivors.emplace_back(manager.app_of(id), manager.mapping_of(id));
      }
      const std::string where = label + " platform " + std::to_string(p);
      check_books(platform, manager.state_snapshot(), survivors, where, gate);
      const runtime::AdmissionStats stats = manager.stats();
      gate.expect(stats.offered == stats.admitted + stats.rejected &&
                      manager.waiting_count() == 0,
                  where + ": offered != admitted + rejected");
      platform_admitted += stats.admitted;
    }
    std::vector<AppId> held;
    for (const std::optional<AppId>& slot : state->slots) {
      if (slot) held.push_back(*slot);
    }
    std::vector<AppId> running = fleet.running_ids();
    sort_ids(held);
    sort_ids(running);
    gate.expect(held == running,
                label + ": running set differs from the client's");
    gate.expect(state->offered == state->admitted + state->rejected,
                label + ": offered != admitted + rejected");
    gate.expect(platform_admitted == state->admitted,
                label + ": platforms admitted " +
                    std::to_string(platform_admitted) + ", client saw " +
                    std::to_string(state->admitted));
    const auto now_logged = admissions_of(record.logs);
    gate.expect(
        after.fleet.dispatches - before.fleet.dispatches ==
                now_logged.first - logged.first &&
            after.admitted - before.admitted ==
                now_logged.second - logged.second &&
            after.fleet.spill_failures - before.fleet.spill_failures ==
                state->rejected - rejected,
        label + ": the fleet's counters over the round differ from the "
                "client's tally");
  }

  result.deterministic = true;
  summarise(config, record, result);
  return result;
}

}  // namespace admitbench
