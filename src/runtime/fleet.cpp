#include "runtime/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/fragmentation.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {

FleetManager::FleetManager(const arch::Platform& platform,
                           FleetOptions options)
    : platform_(&platform),
      options_(std::move(options)),
      cost_(options_.manager.defrag.cost),
      queue_(options_.queue_capacity) {
  require(options_.platforms > 0, "fleet needs at least one platform");
  // Platform-local preemption is force-disabled: a preempted victim is
  // re-parked inside its platform manager and re-admitted later under a
  // fresh local AppId, which silently invalidates the fleet's route for
  // it (release/switch_mode on the fleet id would then hit the wrong —
  // or a vanished — application). Until victims can be re-routed, the
  // fleet's answer to contention is spilling to another platform, same
  // as its no-parking stance in admit_on.
  ManagerOptions manager = options_.manager;
  manager.preemption.enabled = false;
  for (std::size_t p = 0; p < options_.platforms; ++p) {
    auto entry = std::make_unique<PlatformEntry>();
    ConcurrentOptions pool;
    pool.workers = options_.platform_workers;
    entry->manager = std::make_unique<ConcurrentRuntimeManager>(
        *platform_, manager, pool);
    fleet_.push_back(std::move(entry));
  }
  stats_.per_platform_dispatches.assign(fleet_.size(), 0);

  workers_.reserve(options_.workers);
  for (std::uint32_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.background_defrag.enabled) {
    maintenance_ = std::thread([this] { maintenance_loop(); });
  }
}

FleetManager::~FleetManager() { shutdown(); }

void FleetManager::shutdown() {
  if (stopped_.exchange(true)) return;
  {
    // The maintenance loop re-checks stopped_ under its mutex; taking it
    // here pairs the flag with the notify so the sleeper cannot miss it.
    const audit::LockGuard lock(maintenance_mutex_);
  }
  maintenance_cv_.notify_all();
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // With no dispatchers (workers == 0) the closed queue may still hold
  // requests: dispatch them inline so every promise resolves.
  pump();
  if (maintenance_.joinable()) maintenance_.join();
  for (const auto& entry : fleet_) entry->manager->shutdown();
}

// -------------------------------------------------------------- admission

std::future<AdmitOutcome> FleetManager::submit(
    std::shared_ptr<const kpn::Application> app, double deadline_us,
    RequestClass cls) {
  FleetRequest request;
  request.app = std::move(app);
  request.deadline_us = deadline_us;
  request.cls = cls;
  std::future<AdmitOutcome> future = request.promise.get_future();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.push(std::move(request))) {
    // Shut down: push did not consume the request, resolve it here.
    AdmitOutcome outcome;
    outcome.status = AdmitStatus::Rejected;
    request.promise.set_value(std::move(outcome));
    finish_one();
  }
  return future;
}

AdmitOutcome FleetManager::admit(const kpn::Application& app,
                                 double deadline_us, RequestClass cls) {
  std::future<AdmitOutcome> future = submit(
      std::make_shared<kpn::Application>(app), deadline_us, cls);
  if (options_.workers == 0) pump();
  return future.get();
}

void FleetManager::pump() {
  while (true) {
    std::vector<FleetRequest> batch = queue_.try_pop_batch(1);
    if (batch.empty()) return;
    dispatch(std::move(batch.front()));
  }
}

void FleetManager::wait_idle() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  audit::UniqueLock lock(idle_mutex_);
  idle_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void FleetManager::worker_loop() {
  while (true) {
    // One request per pop: each dispatch re-ranks the platforms, so a
    // dispatcher never commits a stale spill order for a whole batch.
    std::vector<FleetRequest> batch = queue_.pop_batch(1);
    if (batch.empty()) return;  // closed and drained
    dispatch(std::move(batch.front()));
  }
}

std::vector<std::size_t> FleetManager::ranked_platforms() {
  struct Scored {
    double score = 0.0;
    std::size_t index = 0;
  };
  std::vector<Scored> scored(fleet_.size());
  double min_occ = 1.0;
  double max_occ = 0.0;
  for (std::size_t p = 0; p < fleet_.size(); ++p) {
    const double occ = fleet_[p]->manager->mean_occupancy();
    min_occ = std::min(min_occ, occ);
    max_occ = std::max(max_occ, occ);
    const double pending = static_cast<double>(
        fleet_[p]->pending.load(std::memory_order_relaxed));
    scored[p] = {occ + options_.queue_depth_weight * pending, p};
  }
  {
    const audit::LockGuard lock(stats_mutex_);
    stats_.max_imbalance =
        std::max(stats_.max_imbalance, std::max(0.0, max_occ - min_occ));
  }
  // Stable ascending by (score, index): deterministic in pump mode, and
  // the pending term already spreads concurrent dispatchers off the tie.
  std::sort(scored.begin(), scored.end(), [](const Scored& a,
                                             const Scored& b) {
    return a.score != b.score ? a.score < b.score : a.index < b.index;
  });
  std::vector<std::size_t> order(scored.size());
  for (std::size_t i = 0; i < scored.size(); ++i) order[i] = scored[i].index;
  return order;
}

AdmitOutcome FleetManager::admit_on(std::size_t p,
                                    const FleetRequest& request) {
  ConcurrentRuntimeManager& manager = *fleet_[p]->manager;
  std::future<AdmitOutcome> future =
      manager.submit(request.app, request.deadline_us, request.cls);
  // Platform managers default to pump mode: the admission runs inline
  // right here, on the dispatcher's thread. With a per-platform pool the
  // pump just helps drain and the wait covers the rest.
  manager.pump();
  manager.wait_idle();
  if (future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    // Parked by a per-platform retry policy. The fleet does not track
    // parked requests (its spill-over is the retry story) — report
    // Waiting and move on; the platform resolves the abandoned future
    // on a later release or at shutdown.
    AdmitOutcome parked;
    parked.status = AdmitStatus::Waiting;
    return parked;
  }
  return future.get();
}

void FleetManager::dispatch(FleetRequest request) {
  const std::vector<std::size_t> order = ranked_platforms();
  const std::size_t tries =
      std::min(order.size(),
               options_.spill_retries >= order.size()
                   ? order.size()
                   : options_.spill_retries + 1);

  AdmitOutcome outcome;
  std::size_t admitted_on = fleet_.size();
  for (std::size_t i = 0; i < tries; ++i) {
    const std::size_t p = order[i];
    fleet_[p]->pending.fetch_add(1, std::memory_order_relaxed);
    outcome = admit_on(p, request);
    fleet_[p]->pending.fetch_sub(1, std::memory_order_relaxed);
    {
      const audit::LockGuard lock(stats_mutex_);
      if (i == 0) {
        ++stats_.dispatches;
      } else {
        ++stats_.spills;
      }
      ++stats_.per_platform_dispatches[p];
    }
    if (outcome.status != AdmitStatus::Rejected) {
      admitted_on = p;
      break;
    }
  }

  if (outcome.status == AdmitStatus::Rejected && options_.cross_migration &&
      try_make_room(order[0])) {
    // One retry on the vacated first choice.
    const std::size_t p = order[0];
    fleet_[p]->pending.fetch_add(1, std::memory_order_relaxed);
    outcome = admit_on(p, request);
    fleet_[p]->pending.fetch_sub(1, std::memory_order_relaxed);
    {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.spills;
      ++stats_.per_platform_dispatches[p];
    }
    if (outcome.status != AdmitStatus::Rejected) admitted_on = p;
  }

  if (outcome.status == AdmitStatus::Admitted) {
    const audit::LockGuard lock(route_mutex_);
    const AppId fleet_id(next_id_++);
    routes_[fleet_id] = Route{admitted_on, outcome.app_id};
    outcome.app_id = fleet_id;
#if RTSM_AUDIT
    audit_routes("dispatch");
#endif
  } else if (outcome.status == AdmitStatus::Rejected) {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.spill_failures;
  }
  request.promise.set_value(std::move(outcome));
  finish_one();
}

bool FleetManager::try_make_room(std::size_t from) {
  // Cheapest victim: the running app with the fewest processes (smallest
  // state image to ship). Emptiest other platform hosts it.
  const audit::LockGuard lock(route_mutex_);
  AppId victim;
  std::size_t victim_processes = SIZE_MAX;
  for (const auto& [fleet_id, route] : routes_) {
    if (route.platform != from) continue;
    const auto app = fleet_[from]->manager->app_of(route.local);
    if (app->process_count() < victim_processes) {
      victim_processes = app->process_count();
      victim = fleet_id;
    }
  }
  if (!victim.valid()) return false;

  std::size_t target = fleet_.size();
  double target_occ = 2.0;
  for (std::size_t p = 0; p < fleet_.size(); ++p) {
    if (p == from) continue;
    const double occ = fleet_[p]->manager->mean_occupancy();
    if (occ < target_occ) {
      target_occ = occ;
      target = p;
    }
  }
  if (target >= fleet_.size()) return false;
  return migrate_locked(victim, target);
}

bool FleetManager::migrate(AppId id, std::size_t to) {
  const audit::LockGuard lock(route_mutex_);
  return migrate_locked(id, to);
}

bool FleetManager::migrate_locked(AppId id, std::size_t to) {
  if (to >= fleet_.size()) return false;
  const auto it = routes_.find(id);
  if (it == routes_.end() || it->second.platform == to) return false;
  const Route route = it->second;
  ConcurrentRuntimeManager& src = *fleet_[route.platform]->manager;
  ConcurrentRuntimeManager& dst = *fleet_[to]->manager;

  const std::shared_ptr<const kpn::Application> app = src.app_of(route.local);
  const core::Mapping before = src.mapping_of(route.local);

  // Admit on the destination first: the app is briefly double-booked but
  // never lost — a failed migration leaves the source untouched.
  std::future<AdmitOutcome> future = dst.submit(app);
  dst.pump();
  dst.wait_idle();
  AdmitOutcome outcome;
  if (future.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    outcome = future.get();
  }
  if (outcome.status != AdmitStatus::Admitted) {
    const audit::LockGuard stats_lock(stats_mutex_);
    ++stats_.cross_migration_failures;
    return false;
  }

  src.release(route.local);
  it->second = Route{to, outcome.app_id};

  const core::Mapping after = dst.mapping_of(outcome.app_id);
  // Both bookings live in the same tile-id space (one shared platform
  // object), so the single-platform cost model prices the placement delta
  // directly — but a cross-platform move quiesces *every* process even
  // when the destination placement is coordinate-identical, so the pause
  // overhead of the full process set is the floor.
  const double pause_floor =
      cost_.pause_us * static_cast<double>(app->process_count());
  double cost_us = pause_floor;
  if (before.all_assigned() && before.all_routed() && after.all_assigned() &&
      after.all_routed()) {
    cost_us =
        std::max(pause_floor, cost_.migration_us(*app, *platform_, before, after));
  }
  {
    const audit::LockGuard stats_lock(stats_mutex_);
    ++stats_.cross_migrations;
    stats_.cross_migration_cost_us += cost_us;
  }
#if RTSM_AUDIT
  audit_routes("migrate");
#endif
  return true;
}

// -------------------------------------------------------------- lifecycle

bool FleetManager::release(AppId id) {
  const audit::LockGuard lock(route_mutex_);
  const auto it = routes_.find(id);
  if (it == routes_.end()) return false;
  const Route route = it->second;
  routes_.erase(it);
  const bool released = fleet_[route.platform]->manager->release(route.local);
#if RTSM_AUDIT
  audit_routes("release");
#endif
  return released;
}

SwitchOutcome FleetManager::switch_mode(
    AppId id, std::shared_ptr<const kpn::Application> next,
    double deadline_us) {
  Route route;
  {
    const audit::LockGuard lock(route_mutex_);
    const auto it = routes_.find(id);
    if (it == routes_.end()) {
      SwitchOutcome out;
      out.app_id = id;
      out.status = SwitchStatus::UnknownId;
      out.message = "switch_mode of unknown fleet application id " +
                    std::to_string(id.value());
      return out;
    }
    route = it->second;
  }
  SwitchOutcome out = fleet_[route.platform]->manager->switch_mode(
      route.local, std::move(next), deadline_us);
  out.app_id = id;
  return out;
}

// -------------------------------------------------------------- observers

std::size_t FleetManager::platform_of(AppId id) const {
  const audit::LockGuard lock(route_mutex_);
  const auto it = routes_.find(id);
  return it == routes_.end() ? fleet_.size() : it->second.platform;
}

std::vector<AppId> FleetManager::running_ids() const {
  const audit::LockGuard lock(route_mutex_);
  std::vector<AppId> ids;
  ids.reserve(routes_.size());
  for (const auto& [fleet_id, route] : routes_) ids.push_back(fleet_id);
  return ids;  // std::map: already ascending
}

std::size_t FleetManager::running_count() const {
  const audit::LockGuard lock(route_mutex_);
  return routes_.size();
}

std::shared_ptr<const kpn::Application> FleetManager::app_of(AppId id) const {
  const audit::LockGuard lock(route_mutex_);
  const auto it = routes_.find(id);
  if (it == routes_.end()) return nullptr;
  return fleet_[it->second.platform]->manager->app_of(it->second.local);
}

core::Mapping FleetManager::mapping_of(AppId id) const {
  const audit::LockGuard lock(route_mutex_);
  const auto it = routes_.find(id);
  require(it != routes_.end(), "mapping_of unknown fleet application id");
  return fleet_[it->second.platform]->manager->mapping_of(it->second.local);
}

core::ResourceState FleetManager::state_snapshot(std::size_t p) const {
  return fleet_[p]->manager->state_snapshot();
}

double FleetManager::platform_occupancy(std::size_t p) const {
  return fleet_[p]->manager->mean_occupancy();
}

// ------------------------------------------------------------ maintenance

void FleetManager::maintenance_loop() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  audit::UniqueLock lock(maintenance_mutex_);
  while (!stopped_.load(std::memory_order_acquire)) {
    maintenance_cv_.wait_for(
        lock, std::chrono::microseconds(options_.background_defrag.period_us),
        [&] { return stopped_.load(std::memory_order_acquire); });
    if (stopped_.load(std::memory_order_acquire)) return;
    lock.unlock();
    defrag_step(options_.background_defrag.platforms_per_tick);
    lock.lock();
  }
}

void FleetManager::defrag_tick() {
  defrag_step(options_.background_defrag.platforms_per_tick);
}

void FleetManager::defrag_step(std::size_t budget) {
  // One tick at a time: the background thread and inline defrag_tick()
  // callers share the round-robin cursor.
  const audit::LockGuard tick_lock(defrag_mutex_);
  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.defrag_ticks;
  }
  const std::size_t visits = std::min(budget, fleet_.size());
  for (std::size_t v = 0; v < visits; ++v) {
    const std::size_t p = defrag_cursor_;
    defrag_cursor_ = (defrag_cursor_ + 1) % fleet_.size();

    // Fragmentation probe on a snapshot — off the admission path; only
    // the pass itself (bounded, budgeted by DefragOptions) takes the
    // platform's state lock for long.
    const double score =
        core::measure_fragmentation(fleet_[p]->manager->state_snapshot())
            .score();
    if (score < options_.background_defrag.min_fragmentation) {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.defrag_skipped;
      continue;
    }
    fleet_[p]->manager->defrag_now();
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.defrag_passes;
  }
}

#if RTSM_AUDIT
void FleetManager::audit_routes(const char* where) const {
  for (const auto& [fleet_id, route] : routes_) {
    bool found = false;
    for (const AppId local : fleet_[route.platform]->manager->running_ids()) {
      if (local.value() == route.local.value()) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string locals;
      for (const AppId local :
           fleet_[route.platform]->manager->running_ids()) {
        if (!locals.empty()) locals += ", ";
        locals += std::to_string(local.value());
      }
      audit::Violation violation;
      violation.kind = audit::Violation::Kind::StateMismatch;
      violation.message =
          std::string("fleet/") + where + ": fleet id " +
          std::to_string(fleet_id.value()) + " routes to platform " +
          std::to_string(route.platform) + " local id " +
          std::to_string(route.local.value()) +
          ", which is not running there (running: [" + locals + "])";
      audit::report_violation(violation);
    }
  }
}
#endif

void FleetManager::finish_one() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const audit::LockGuard lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

// ------------------------------------------------------------------ stats

FleetStats FleetManager::fleet_stats() const {
  const audit::LockGuard lock(stats_mutex_);
  return stats_;
}

FleetStatsReport FleetManager::stats_report() {
  FleetStatsReport report;
  report.fleet = fleet_stats();
  report.platforms.reserve(fleet_.size());
  for (const auto& entry : fleet_) {
    report.platforms.push_back(entry->manager->stats_report());
  }
  return report;
}

std::string FleetStatsReport::to_json() const {
  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", fleet.cross_migration_cost_us);
  const std::string cost_us = buf;
  std::snprintf(buf, sizeof(buf), "%.6f", fleet.max_imbalance);
  const std::string imbalance = buf;

  out << "{\"fleet\":{\"dispatches\":" << fleet.dispatches
      << ",\"spills\":" << fleet.spills
      << ",\"spill_failures\":" << fleet.spill_failures
      << ",\"cross_migrations\":" << fleet.cross_migrations
      << ",\"cross_migration_failures\":" << fleet.cross_migration_failures
      << ",\"cross_migration_cost_us\":" << cost_us
      << ",\"defrag_ticks\":" << fleet.defrag_ticks
      << ",\"defrag_passes\":" << fleet.defrag_passes
      << ",\"defrag_skipped\":" << fleet.defrag_skipped
      << ",\"max_imbalance\":" << imbalance
      << ",\"per_platform_dispatches\":[";
  for (std::size_t p = 0; p < fleet.per_platform_dispatches.size(); ++p) {
    if (p > 0) out << ",";
    out << fleet.per_platform_dispatches[p];
  }
  out << "]},\"platforms\":[";
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    if (p > 0) out << ",";
    out << platforms[p].to_json();
  }
  out << "]}";
  return out.str();
}

// ------------------------------------------------------------ FleetTarget

std::uint64_t FleetTarget::submit(std::shared_ptr<const kpn::Application> app,
                                  double deadline_us, RequestClass cls) {
  std::future<AdmitOutcome> future =
      fleet_->submit(std::move(app), deadline_us, cls);
  pending_.emplace_back(++next_ticket_, std::move(future));
  return next_ticket_;
}

std::vector<SettledOutcome> FleetTarget::settle() {
  fleet_->pump();
  fleet_->wait_idle();
  std::vector<SettledOutcome> settled;
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->second.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      settled.push_back({it->first, it->second.get()});
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return settled;
}

std::vector<SettledOutcome> FleetTarget::finish() { return settle(); }

bool FleetTarget::is_running(AppId id) const {
  return fleet_->platform_of(id) < fleet_->platform_count();
}

AdmissionStats FleetTarget::stats() const {
  AdmissionStats sum;
  for (std::size_t p = 0; p < fleet_->platform_count(); ++p) {
    const AdmissionStats s = fleet_->manager(p).stats();
    sum.offered += s.offered;
    sum.admitted += s.admitted;
    sum.rejected += s.rejected;
    sum.deadline_misses += s.deadline_misses;
    sum.retries += s.retries;
    sum.releases += s.releases;
    sum.release_errors += s.release_errors;
    sum.conflicts += s.conflicts;
    sum.booking_conflicts += s.booking_conflicts;
    sum.lease_admits += s.lease_admits;
    sum.lease_fallbacks += s.lease_fallbacks;
    sum.defrag_passes += s.defrag_passes;
    sum.migrations += s.migrations;
    sum.migration_failures += s.migration_failures;
    sum.migration_cost_us += s.migration_cost_us;
    sum.preemption_grants += s.preemption_grants;
    sum.preemption_evictions += s.preemption_evictions;
    sum.mode_switches += s.mode_switches;
    sum.switches_in_place += s.switches_in_place;
    sum.switches_replanned += s.switches_replanned;
    sum.switches_rolled_back += s.switches_rolled_back;
    sum.switch_failures += s.switch_failures;
    sum.switch_deadline_misses += s.switch_deadline_misses;
    sum.switch_migration_cost_us += s.switch_migration_cost_us;
    sum.shape_hits += s.shape_hits;
    sum.shape_misses += s.shape_misses;
  }
  return sum;
}

bool FleetTarget::replay_matches() const {
  // Per-platform oracle: every platform's live state must equal the
  // replay of its own surviving (app, mapping) pairs — including apps
  // the fleet no longer tracks (abandoned parked admissions).
  for (std::size_t p = 0; p < fleet_->platform_count(); ++p) {
    ConcurrentRuntimeManager& manager = fleet_->manager(p);
    const core::ResourceState live = manager.state_snapshot();
    core::ResourceState replayed(live.platform());
    for (const AppId id : manager.running_ids()) {
      core::commit_mapping(replayed, *manager.app_of(id),
                           manager.mapping_of(id));
    }
    if (!live.approx_equals(replayed)) return false;
  }
  return true;
}

}  // namespace rtsm::runtime
