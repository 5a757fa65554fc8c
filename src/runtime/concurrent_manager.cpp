#include "runtime/concurrent_manager.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/check_state.hpp"
#include "core/fragmentation.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/preemption.hpp"
#include "runtime/stats_report.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {

/// One planner's hold on a lease stripe, whose mutex lock_free_stripe()
/// took. Ends when the planner's placement is booked in the live state, or
/// on destruction.
class ConcurrentRuntimeManager::Lease {
 public:
  Lease(ConcurrentRuntimeManager& owner, std::size_t leased)
      : manager(owner), stripe(leased) {}
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() { end(); }

  void end() RTSM_NO_THREAD_SAFETY_ANALYSIS {
    if (!held) return;
    held = false;
    manager.stripes_[stripe]->mutex.unlock();
  }

  ConcurrentRuntimeManager& manager;
  std::size_t stripe;
  bool held = true;
};

/// One placement booked in the live state between the mapper's step 3 and
/// step 4. Only the planning thread touches it outside the state lock;
/// while it is held, the manager's bookings_ list points at it so that the
/// audit counts it as live. Whatever is still held on destruction is
/// released, so an exception or an early return cannot leak a booking.
class ConcurrentRuntimeManager::Booking final : public core::PlanBooking {
 public:
  Booking(ConcurrentRuntimeManager& owner,
          std::shared_ptr<const kpn::Application> booked_app)
      : manager(owner), app(std::move(booked_app)) {}
  Booking(const Booking&) = delete;
  Booking& operator=(const Booking&) = delete;
  ~Booking() override { release(); }

  Result book(const kpn::Application& booked_app, const core::Mapping& placed,
              const core::ResourceState& planned_on) override {
    require(&booked_app == app.get(), "booking of a foreign application");
    const Result result = manager.book_placement(*this, placed, planned_on);
    // The placement is live now, and other planners' snapshots see it: the
    // stripe is free for them.
    if (result == Result::Booked && lease != nullptr) lease->end();
    return result;
  }

  void release() override {
    if (held) manager.release_booking(*this);
  }

  ConcurrentRuntimeManager& manager;
  std::shared_ptr<const kpn::Application> app;
  /// The booked placement (no buffers); meaningful while held.
  core::Mapping placed{0, 0};
  bool held = false;
  /// The last book() found no room in the live state.
  bool conflicted = false;
  /// Bookings released without a commit. Each release woke the parked
  /// list once, which its own planner must not read as a foreign release.
  std::uint64_t unbooks = 0;
  /// The held booking took the version gate instead of re-validating.
  bool gated = false;
  /// The lease the placement was planned in, if any.
  Lease* lease = nullptr;
};

ConcurrentRuntimeManager::ConcurrentRuntimeManager(
    const arch::Platform& platform, ManagerOptions manager,
    ConcurrentOptions options)
    : platform_(&platform),
      mapper_(manager.mapper != nullptr
                  ? std::move(manager.mapper)
                  : std::make_shared<core::SpatialMapper>()),
      policy_(manager.policy != nullptr
                  ? std::move(manager.policy)
                  : std::make_shared<FirstFitAdmission>()),
      priority_(options.priority != nullptr
                    ? std::move(options.priority)
                    : std::make_shared<FifoPriority>()),
      options_(std::move(options)),
      preemption_(manager.preemption),
      shapes_(std::move(manager.shapes)),
      state_(platform),
      observer_scratch_(platform),
      pump_scratch_(platform),
      queue_(options_.queue_capacity) {
  // Record mutations of the live state in a bounded journal so worker
  // scratches refresh in O(changes) and commits whose snapshot version
  // still matches skip re-validation entirely.
  state_.enable_journal();
  portfolio_ = make_portfolio(manager);
  require(options_.max_batch >= 1, "max_batch must be >= 1");
  require(shapes_ == nullptr || &shapes_->platform() == &platform,
          "shape library must be built for this manager's platform");
  planner_ = std::make_unique<DefragPlanner>(mapper_, manager.defrag);

  // Region leases, when more than one planner can run: one vertical
  // stripe more than there are workers, so a planner always finds one
  // free. A portfolio race plans whole-platform instead (its strategies
  // spread across the pool, not across stripes).
  if (options_.workers >= 2 && portfolio_ == nullptr) {
    const std::uint32_t count =
        std::min(options_.workers + 1, platform.mesh_width());
    for (std::uint32_t s = 0; count >= 2 && s < count; ++s) {
      stripes_.push_back(std::make_unique<Stripe>());
    }
    for (const TileId tid : platform.tile_ids()) {
      if (stripes_.empty()) break;  // a one-column mesh: no leases
      Stripe& stripe = *stripes_[stripe_of(tid)];
      stripe.tiles.insert(platform.tile(tid).name);
      stripe.types.insert(platform.tile_type(platform.tile(tid).type).name);
    }
  }

  workers_.reserve(options_.workers);
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ConcurrentRuntimeManager::~ConcurrentRuntimeManager() { shutdown(); }

std::size_t ConcurrentRuntimeManager::stripe_of(TileId tile) const {
  if (stripes_.empty()) return 0;
  const std::uint32_t x = platform_->tile(tile).x;
  const std::uint32_t width = std::max(platform_->mesh_width(), 1u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(x) * stripes_.size() / width,
      stripes_.size() - 1);
}

std::future<AdmitOutcome> ConcurrentRuntimeManager::submit(
    std::shared_ptr<const kpn::Application> app, double deadline_us,
    RequestClass cls) {
  require(app != nullptr, "admission request without an application");
  Request request;
  request.id = next_request_.fetch_add(1);
  request.priority = priority_->priority(*app, deadline_us);
  request.cls = cls;
  request.app = std::move(app);
  request.deadline_us = deadline_us;
  std::future<AdmitOutcome> future = request.promise.get_future();

  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.offered;
  }
  in_flight_.fetch_add(1);
  Job job;
  job.request = std::move(request);
  if (options_.workers == 0) {
    // Inline mode: the caller is the only consumer, so a blocking push on
    // a full queue would deadlock this thread. Make room by pumping.
    while (!queue_.try_push(std::move(job))) {
      if (queue_.closed()) {
        reject(std::move(job.request), "manager is shut down");
        return future;
      }
      pump();
    }
    return future;
  }
  if (!queue_.push(std::move(job))) {
    reject(std::move(job.request), "manager is shut down");
  }
  return future;
}

void ConcurrentRuntimeManager::resolve_deadline_miss(Request request) {
  AdmitOutcome outcome;
  outcome.request = request.id;
  outcome.status = AdmitStatus::DeadlineMiss;
  outcome.attempts = request.attempts;
  outcome.mapping_us = request.mapping_us;
  resolve(std::move(request), std::move(outcome));
}

void ConcurrentRuntimeManager::reject(Request request, std::string failure) {
  AdmitOutcome outcome;
  outcome.request = request.id;
  outcome.status = AdmitStatus::Rejected;
  outcome.attempts = request.attempts;
  outcome.mapping_us = request.mapping_us;
  outcome.mapping.failure = std::move(failure);
  resolve(std::move(request), std::move(outcome));
}

AdmitOutcome ConcurrentRuntimeManager::admit(const kpn::Application& app,
                                             double deadline_us,
                                             RequestClass cls) {
  auto future =
      submit(std::make_shared<kpn::Application>(app), deadline_us, cls);
  if (options_.workers == 0) pump();
  return future.get();
}

void ConcurrentRuntimeManager::pump() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  // Reuse the manager-level pump scratch: the delta-refresh fast path
  // needs a buffer that survives the pump() call that armed its version
  // token, and inline mode (workers == 0) pumps once per admit. A
  // concurrent pump (an extra thread helping a live pool) takes a local
  // scratch instead of contending.
  audit::UniqueLock pump_lock(pump_mutex_, std::try_to_lock);
  std::optional<core::ResourceState> local;
  core::ResourceState& scratch =
      pump_lock.owns_lock() ? pump_scratch_ : local.emplace(*platform_);
  while (true) {
    std::vector<Job> jobs = queue_.try_pop_batch(options_.max_batch);
    if (jobs.empty()) return;
    retry_deferred_wake();
    process_jobs(std::move(jobs), scratch);
  }
}

void ConcurrentRuntimeManager::worker_loop() {
  // One scratch snapshot per worker for its whole lifetime: every
  // optimistic attempt copy-assigns the live state into it instead of
  // allocating a fresh snapshot (see snapshot_state_into).
  core::ResourceState scratch(*platform_);
  while (true) {
    std::vector<Job> jobs = queue_.pop_batch(options_.max_batch);
    if (jobs.empty()) return;  // closed and drained
    retry_deferred_wake();
    process_jobs(std::move(jobs), scratch);
  }
}

void ConcurrentRuntimeManager::process_jobs(std::vector<Job> jobs,
                                            core::ResourceState& scratch) {
  // Helper jobs first: the racing owner that queued one is blocked in
  // close_and_wait until every claimed strategy finishes, so lending this
  // worker to the race beats starting new admissions. A helper whose race
  // already closed (the owner ran the strategy itself) is a no-op.
  std::vector<Request> batch;
  batch.reserve(jobs.size());
  for (Job& job : jobs) {
    if (job.race != nullptr) {
      job.race->run(job.strategy);
    } else {
      batch.push_back(std::move(job.request));
    }
  }
  if (!batch.empty()) process_batch(std::move(batch), scratch);
}

void ConcurrentRuntimeManager::process_batch(std::vector<Request> batch,
                                             core::ResourceState& scratch) {
  // One drained burst: the request class outranks the pluggable priority
  // policy, which outranks arrival order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Request& a, const Request& b) {
                     if (a.cls.priority != b.cls.priority) {
                       return a.cls.priority > b.cls.priority;
                     }
                     if (a.priority != b.priority) {
                       return a.priority > b.priority;
                     }
                     return a.id < b.id;
                   });
  for (Request& request : batch) {
    // A throwing mapper must neither end a worker thread (std::terminate)
    // nor escape a pump() caller with the request's promise broken and its
    // in-flight count stranded: the request is rejected with the exception
    // text. The attempt's Booking and Lease released themselves meanwhile.
    try {
      process_request(request, scratch);
    } catch (const std::exception& e) {
      reject(std::move(request), e.what());
    } catch (...) {
      reject(std::move(request), "planning threw a non-standard exception");
    }
  }
}

core::MappingResult ConcurrentRuntimeManager::run_mapper(
    Request& request, const core::ResourceState& base, Booking* booking) {
  const auto start = std::chrono::steady_clock::now();
  core::MappingResult result =
      booking != nullptr ? mapper_->map_booked(*request.app, base, *booking)
                         : mapper_->map(*request.app, base);
  request.mapping_us += elapsed_us(start);
  map_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  ++request.attempts;
  return result;
}

core::MappingResult ConcurrentRuntimeManager::run_race(
    Request& request, const core::ResourceState& base) {
  auto race = std::make_shared<PortfolioRace>(*portfolio_, *request.app, base);
  // Offer strategies 1..N-1 to idle workers. try_push only: blocking on a
  // full queue from inside a worker would deadlock the pool, and an
  // unoffered strategy is simply run by the owner below.
  for (std::size_t i = 1; i < portfolio_->size(); ++i) {
    Job helper;
    helper.race = race;
    helper.strategy = i;
    if (!queue_.try_push(std::move(helper))) break;
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < portfolio_->size(); ++i) {
    race->run(i);  // strategy 0 first, then whatever no helper claimed
  }
  RaceOutcome outcome = race->close_and_wait();
  // The owner's wall-clock span of the race — parallel helper time shows
  // up in the per-strategy spent_us stats, not in the request's latency.
  request.mapping_us += elapsed_us(start);
  map_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  request.attempts += std::max<std::uint32_t>(outcome.attempts, 1);
  {
    const audit::LockGuard lock(stats_mutex_);
    merge_portfolio_stats(stats_, *portfolio_, outcome);
    if (!outcome.has_winner()) ++stats_.portfolio_fallbacks;
  }
  if (outcome.has_winner()) {
    request.portfolio_winner = outcome.winning_run().name;
    return std::move(outcome.winning_run().result);
  }
  // Budget exhausted or every strategy failed: one unbudgeted primary run,
  // so a mis-tuned budget degrades to the single-mapper manager.
  request.portfolio_winner.clear();
  return run_mapper(request, base);
}

bool ConcurrentRuntimeManager::validate_and_commit(
    Request& request, core::MappingResult& result,
    const core::ResourceState* planned_on, bool shape_hit) {
  AppId id;
  {
    const audit::LockGuard lock(state_mutex_);
    // Version gate: the plan was pre-validated against @p planned_on, and
    // a still-armed sync token proves the live state has not mutated since
    // that scratch refreshed — the two are bit-identical, so re-running
    // mapping_fits here would recompute a known true. Any commit, release,
    // defrag or mode switch in between bumps the live version and the
    // token mismatches, forcing the full (O(touched)) re-check.
    if (planned_on != nullptr && planned_on->synced_with(state_)) {
      gated_commits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const auto validate_start = std::chrono::steady_clock::now();
      const bool fits =
          core::mapping_fits(state_, *request.app, result.mapping);
      validate_ns_.fetch_add(elapsed_ns(validate_start),
                             std::memory_order_relaxed);
      if (!fits) return false;
      validated_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto commit_start = std::chrono::steady_clock::now();
    core::commit_mapping(state_, *request.app, result.mapping);
    commit_ns_.fetch_add(elapsed_ns(commit_start), std::memory_order_relaxed);
    id = AppId{next_app_.fetch_add(1)};
    running_.emplace(id, RunningApp{request.app, result.mapping,
                                    result.energy_nj_per_symbol, request.cls,
                                    request.id});
#if RTSM_AUDIT
    audit_check("commit");
#endif
  }
  resolve_admitted(request, result, id, shape_hit);
  return true;
}

core::PlanBooking::Result ConcurrentRuntimeManager::book_placement(
    Booking& booking, const core::Mapping& placed,
    const core::ResourceState& planned_on) {
  booking.release();
  booking.conflicted = false;
  const kpn::Application& app = *booking.app;
  // Pre-validate against the snapshot the placement was planned on,
  // outside any lock. A placement that does not fit its own snapshot is a
  // mapper failure, not a conflict; a pass arms the version gate below.
  const auto validate_start = std::chrono::steady_clock::now();
  const bool fits_snapshot = core::mapping_fits(planned_on, app, placed);
  validate_ns_.fetch_add(elapsed_ns(validate_start),
                         std::memory_order_relaxed);
  if (!fits_snapshot) return core::PlanBooking::Result::Misfit;
  // Not in bookings_ yet, so nothing else reads it.
  booking.placed = placed;

  const audit::LockGuard lock(state_mutex_);
  // Version gate, as in validate_and_commit: a snapshot still synced with
  // the live state is bit-identical to it, so the check above already
  // proved the booking fits.
  booking.gated = planned_on.synced_with(state_);
  if (!booking.gated) {
    const auto start = std::chrono::steady_clock::now();
    const bool fits = core::mapping_fits(state_, app, placed);
    validate_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
    if (!fits) {
      booking.conflicted = true;
      return core::PlanBooking::Result::Conflict;
    }
  }
  const auto commit_start = std::chrono::steady_clock::now();
  core::commit_mapping(state_, app, placed);
  commit_ns_.fetch_add(elapsed_ns(commit_start), std::memory_order_relaxed);
  booking.held = true;
  bookings_.push_back(&booking);
#if RTSM_AUDIT
  audit_check("book");
#endif
  return core::PlanBooking::Result::Booked;
}

void ConcurrentRuntimeManager::release_booking(Booking& booking) {
  {
    const audit::LockGuard lock(state_mutex_);
    release_booking_locked(booking);
  }
  // The released capacity may be what a parked request failed on: its
  // snapshot showed this booking. Wake the parked list, as release() does.
  requeue_waiting(/*after_defrag_migration=*/false, /*from_planner=*/true);
}

void ConcurrentRuntimeManager::release_booking_locked(Booking& booking) {
  core::release_mapping(state_, *booking.app, booking.placed);
  std::erase(bookings_, &booking);
  booking.held = false;
  ++booking.unbooks;
#if RTSM_AUDIT
  audit_check("unbook");
#endif
}

bool ConcurrentRuntimeManager::commit_booked(Request& request,
                                             core::MappingResult& result,
                                             Booking& booking) {
  std::optional<AppId> id;
  {
    const audit::LockGuard lock(state_mutex_);
    const auto commit_start = std::chrono::steady_clock::now();
    // The placement has been live since the booking; only the buffers are
    // new. Step 4 fitted them against the snapshot, and a racing commit
    // may have filled a consumer's memory since, so each is checked
    // against the live state.
    if (core::commit_buffers(state_, *request.app, result.mapping)
            .has_value()) {
      release_booking_locked(booking);
    } else {
      (booking.gated ? gated_commits_ : validated_commits_)
          .fetch_add(1, std::memory_order_relaxed);
      std::erase(bookings_, &booking);
      booking.held = false;
      id = AppId{next_app_.fetch_add(1)};
      running_.emplace(*id, RunningApp{request.app, result.mapping,
                                       result.energy_nj_per_symbol,
                                       request.cls, request.id});
#if RTSM_AUDIT
      audit_check("commit");
#endif
    }
    commit_ns_.fetch_add(elapsed_ns(commit_start), std::memory_order_relaxed);
  }
  if (!id) {
    requeue_waiting(/*after_defrag_migration=*/false, /*from_planner=*/true);
    return false;
  }
  resolve_admitted(request, result, *id, /*shape_hit=*/false);
  return true;
}

void ConcurrentRuntimeManager::resolve_admitted(Request& request,
                                                core::MappingResult& result,
                                                AppId id, bool shape_hit) {
  // Learn-on-admit: a committed miss-path placement enters the library
  // (outside the state lock — the library has its own mutex) so future
  // structurally equal arrivals take the shape hot path.
  if (shapes_ != nullptr && !shape_hit) {
    const shapes::LearnResult learned =
        shapes_->learn(*request.app, result);
    const audit::LockGuard lock(stats_mutex_);
    if (learned.inserted) ++stats_.shape_inserts;
    stats_.shape_evictions += learned.evictions;
  }
  AdmitOutcome outcome;
  outcome.request = request.id;
  outcome.status = AdmitStatus::Admitted;
  outcome.app_id = id;
  outcome.attempts = request.attempts;
  outcome.mapping_us = request.mapping_us;
  outcome.shape_hit = shape_hit;
  outcome.portfolio_winner = std::move(request.portfolio_winner);
  outcome.mapping = std::move(result);
  resolve(std::move(request), std::move(outcome));
}

void ConcurrentRuntimeManager::snapshot_state_into(
    core::ResourceState& out) const {
  const auto start = std::chrono::steady_clock::now();
  {
    const audit::LockGuard lock(state_mutex_);
    state_.refresh_snapshot_into(out);
  }
  snapshot_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  snapshot_reuses_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentRuntimeManager::masked_snapshot_into(
    std::size_t stripe, core::ResourceState& out) const {
  snapshot_state_into(out);
  for (const TileId tid : out.platform().tile_ids()) {
    if (stripe_of(tid) != stripe) out.saturate_tile(tid);
  }
}

std::optional<std::size_t> ConcurrentRuntimeManager::lock_free_stripe(
    const kpn::Application& app) RTSM_NO_THREAD_SAFETY_ANALYSIS {
  // Only stripes that can host the app at all: a tile of some
  // implementation's type for every process, and every pinned tile.
  const auto can_host = [&](const Stripe& s) {
    return std::ranges::all_of(app.process_ids(), [&](ProcessId pid) {
      const kpn::Process& p = app.process(pid);
      if (p.is_fixture()) return s.tiles.contains(*p.pinned_tile);
      return std::ranges::any_of(p.implementations, [&](const auto& im) {
        return s.types.contains(im.tile_type);
      });
    });
  };
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    if (can_host(*stripes_[s])) order.push_back(s);
  }
  if (order.empty()) return std::nullopt;
  std::vector<double> load(stripes_.size(), 0.0);
  {
    // One O(tiles) scan under the state lock per leased attempt.
    const audit::LockGuard lock(state_mutex_);
    for (const TileId tid : platform_->tile_ids()) {
      load[stripe_of(tid)] += core::tile_occupancy(state_, tid);
    }
  }
  for (const std::size_t s : order) {
    const std::size_t tiles = stripes_[s]->tiles.size();  // unique names
    load[s] = tiles == 0 ? std::numeric_limits<double>::infinity()
                         : load[s] / static_cast<double>(tiles);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return load[a] < load[b];
  });
  // try_lock only: a held stripe is another planner's, and the next one is
  // as good as waiting for it.
  for (const std::size_t s : order) {
    if (stripes_[s]->mutex.try_lock()) return s;
  }
  return std::nullopt;
}

bool ConcurrentRuntimeManager::try_lease_admit(Request& request,
                                               core::ResourceState& scratch) {
  const std::optional<std::size_t> stripe = lock_free_stripe(*request.app);
  if (!stripe) {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.lease_fallbacks;
    return false;
  }
  Lease lease(*this, *stripe);
  masked_snapshot_into(*stripe, scratch);
  Booking booking(*this, request.app);
  booking.lease = &lease;
  core::MappingResult result = run_mapper(request, scratch, &booking);
  const bool booked = result.success && booking.held;
  if (!booked) booking.release();
  if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
    booking.release();
    lease.end();
    resolve_deadline_miss(std::move(request));
    return true;
  }
  // A booked placement commits only its buffers; a mapper that does not
  // book validates its whole plan at the end, still inside the lease.
  bool conflict = booking.conflicted;
  if (result.success) {
    request.leased = true;
    if (booked ? commit_booked(request, result, booking)
               : validate_and_commit(request, result)) {
      return true;
    }
    request.leased = false;
    conflict = true;
  }
  lease.end();
  const audit::LockGuard lock(stats_mutex_);
  if (conflict) {
    ++stats_.conflicts;
    if (booking.conflicted) ++stats_.booking_conflicts;
  }
  ++stats_.lease_fallbacks;
  return false;
}

bool ConcurrentRuntimeManager::try_shape_admit(Request& request,
                                               core::ResourceState& scratch) {
  std::uint32_t shape_conflicts = 0;
  while (true) {
    const auto start = std::chrono::steady_clock::now();
    snapshot_state_into(scratch);
    shapes::ShapeLookup lookup =
        shapes_->try_instantiate(*request.app, scratch);
    request.mapping_us += elapsed_us(start);
    {
      const audit::LockGuard lock(stats_mutex_);
      stats_.shape_anchor_probes += lookup.anchor_probes;
    }
    if (!lookup.plan.has_value()) {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.shape_misses;
      return false;
    }
    core::MappingResult plan = std::move(*lookup.plan);
    ++request.attempts;
    if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
      AdmitOutcome outcome;
      outcome.request = request.id;
      outcome.status = AdmitStatus::DeadlineMiss;
      outcome.attempts = request.attempts;
      outcome.mapping_us = request.mapping_us;
      outcome.shape_hit = true;
      resolve(std::move(request), std::move(outcome));
      return true;
    }
    // The library already ran mapping_fits against this scratch (the
    // probe's full fit check), so the commit may take the version gate.
    if (validate_and_commit(request, plan, &scratch, /*shape_hit=*/true)) {
      return true;
    }
    // Outraced between snapshot and commit: re-probe against the fresh
    // state, bounded like the optimistic mapper loop.
    {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.conflicts;
    }
    if (++shape_conflicts > options_.validation_retries) {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.shape_misses;
      return false;
    }
  }
}

void ConcurrentRuntimeManager::process_request(
    Request& request,
    core::ResourceState& scratch) RTSM_NO_THREAD_SAFETY_ANALYSIS {
  // Phase 0 — shape-library hot path: instantiate a learned relocatable
  // placement and commit it through the ordinary two-phase commit,
  // skipping the mapper (and the lease — a shape probe is cheaper than
  // the stripe bookkeeping it would be confined by).
  if (shapes_ != nullptr && try_shape_admit(request, scratch)) {
    return;
  }

  // Phase 1 — region lease: plan inside the least-occupied stripe that can
  // host the app and no other planner holds, so the commit meets no other
  // planner's placement.
  if (!stripes_.empty() && try_lease_admit(request, scratch)) return;

  // Phase 2 — whole-platform optimistic loop: map on a snapshot outside
  // any lock, re-validate + commit under the state lock, re-map on
  // conflict. A booking mapper validates and books its placement before
  // step 4 instead, so the conflict window closes before the simulation
  // and only the buffers are left to commit.
  std::uint32_t conflicts = 0;
  while (true) {
    // Epoch before the snapshot: if a release advances it while this
    // attempt runs, the attempt's failure verdict may be stale and the
    // request must not park on it (it would miss that release's wake).
    const std::uint64_t epoch_seen = release_epoch_.load();
    snapshot_state_into(scratch);
    // A conflict retry re-races on the fresh snapshot (fresh budget): the
    // strategies' relative quality may change with the changed state.
    std::optional<Booking> booking;
    core::MappingResult result =
        portfolio_ != nullptr
            ? run_race(request, scratch)
            : run_mapper(request, scratch,
                         &booking.emplace(*this, request.app));
    const bool booking_conflict = booking && booking->conflicted;
    // Nothing that resolves or re-plans below may leave a booking behind.
    const bool booked = result.success && booking && booking->held;
    if (booking && !booked) booking->release();
    if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
      booking.reset();
      resolve_deadline_miss(std::move(request));
      return;
    }
    if (result.success && !booked) {
      // Pre-validate against the scratch the plan was made on, outside
      // any lock. This is the serial manager's design-time-baseline
      // screen (a plan that does not fit its own snapshot is a mapper
      // failure, not a conflict) and what arms validate_and_commit's
      // version gate: if the live state has not moved since the scratch
      // refreshed, this check already proved the commit precondition.
      const auto validate_start = std::chrono::steady_clock::now();
      const bool fits_snapshot =
          core::mapping_fits(scratch, *request.app, result.mapping);
      validate_ns_.fetch_add(elapsed_ns(validate_start),
                             std::memory_order_relaxed);
      if (!fits_snapshot) {
        result.success = false;
        result.failure = "mapping does not fit the residual resources";
      }
    }
    if (result.success || booking_conflict) {
      const bool committed =
          booked ? commit_booked(request, result, *booking)
                 : result.success &&
                       validate_and_commit(request, result, &scratch);
      if (committed) return;
      {
        const audit::LockGuard lock(stats_mutex_);
        ++stats_.conflicts;
        if (booking_conflict) ++stats_.booking_conflicts;
      }
      if (++conflicts <= options_.validation_retries) continue;
      result.success = false;
      result.failure = "optimistic validation kept conflicting (" +
                       std::to_string(conflicts) + " attempts)";
    }
    // OnReject: compact once per request, then retry against the
    // defragmented state (fresh snapshot, fresh epoch, and a fresh
    // validation-conflict budget — the pre-defrag conflicts say nothing
    // about the compacted state).
    if (planner_->options().policy == DefragPolicy::OnReject &&
        !request.defragged) {
      request.defragged = true;
      if (defrag_pass_locked().migrations > 0) {
        conflicts = 0;
        continue;
      }
    }
    // Last resort for an outranking arrival: evict lower-priority
    // preemptible victims. Plan, eviction and commit share one
    // state-lock hold, so no racing worker can steal the freed capacity
    // in between; the victims are re-parked after the lock is dropped.
    if (!request.reparked) {
      std::vector<Request> evicted;
      if (try_preempt_and_commit(request, evicted)) {
        park_evicted(std::move(evicted));
        return;
      }
    }
    if (policy_->on_failure(result, request.attempts) ==
        FailureAction::Retry) {
      // This attempt's own booking releases woke the parked list too; they
      // say nothing about the state its verdict was made on.
      const std::uint64_t own_wakes = booking ? booking->unbooks : 0;
      if (try_park(request, epoch_seen + own_wakes)) return;
      continue;  // a release raced this attempt: retry on the fresh state
    }
    AdmitOutcome outcome;
    outcome.request = request.id;
    outcome.status = AdmitStatus::Rejected;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping = std::move(result);
    resolve(std::move(request), std::move(outcome));
    return;
  }
}

void ConcurrentRuntimeManager::record_outcome(const Request& request,
                                              const AdmitOutcome& outcome) {
  const audit::LockGuard lock(stats_mutex_);
  switch (outcome.status) {
    case AdmitStatus::Admitted:
      ++stats_.admitted;
      if (outcome.shape_hit) ++stats_.shape_hits;
      if (request.leased) ++stats_.lease_admits;
      break;
    case AdmitStatus::Rejected:
      ++stats_.rejected;
      break;
    case AdmitStatus::DeadlineMiss:
      ++stats_.deadline_misses;
      break;
    case AdmitStatus::Waiting:
      break;
  }
  stats_.latencies.record(outcome.mapping_us);
  resolution_order_.push_back(request.id);
}

void ConcurrentRuntimeManager::resolve(Request request, AdmitOutcome outcome) {
  record_outcome(request, outcome);
  request.promise.set_value(std::move(outcome));
  finish_one();
}

bool ConcurrentRuntimeManager::try_park(Request& request,
                                        std::uint64_t epoch_seen) {
  {
    const audit::LockGuard lock(waiting_mutex_);
    // requeue_waiting() bumps the epoch and drains the list under this
    // same mutex, so either this request makes it into the list before
    // the wake (and is woken), or it observes the bumped epoch here and
    // retries instead — a release can never fall between the two.
    if (release_epoch_.load() != epoch_seen) return false;
    waiting_.push_back(std::move(request));
  }
  // Parked requests wait for a future release, not for a worker.
  finish_one();
  return true;
}

void ConcurrentRuntimeManager::requeue_waiting(bool after_defrag_migration,
                                               bool from_planner) {
  std::vector<Request> woken;
  {
    const audit::LockGuard lock(waiting_mutex_);
    release_epoch_.fetch_add(1);
    woken.swap(waiting_);
  }
  if (woken.empty()) return;
  std::vector<Request> deferred;
  for (Request& request : woken) {
    in_flight_.fetch_add(1);
    Job job;
    job.request = std::move(request);
    const bool queued = from_planner ? queue_.try_push(std::move(job))
                                     : queue_.push(std::move(job));
    if (!queued && from_planner && !queue_.closed()) {
      // A planner must not block on the queue it consumes. The queue is
      // full, so a worker pops soon and wakes the rest (wake_deferred).
      // The request in flight that called this keeps the count above 0.
      in_flight_.fetch_sub(1);
      deferred.push_back(std::move(job.request));
      continue;
    }
    if (!queued) {
      // Shutting down: the queue refused (job untouched) — give up.
      // No retry is counted: no further mapping attempt will run.
      reject(std::move(job.request), "manager is shut down");
      continue;
    }
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.retries;
    if (after_defrag_migration) ++stats_.parked_woken_by_defrag;
  }
  if (deferred.empty()) return;
  const audit::LockGuard lock(waiting_mutex_);
  for (Request& request : deferred) waiting_.push_back(std::move(request));
  wake_deferred_.store(true);
}

void ConcurrentRuntimeManager::retry_deferred_wake() {
  if (wake_deferred_.load() && wake_deferred_.exchange(false)) {
    requeue_waiting(/*after_defrag_migration=*/false, /*from_planner=*/true);
  }
}

void ConcurrentRuntimeManager::finish_one() {
  if (in_flight_.fetch_sub(1) == 1) {
    // Empty critical section pairs with the predicate check in
    // wait_idle(): a waiter is either not yet blocked (re-checks) or
    // blocked (receives the notify).
    const audit::LockGuard lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

bool ConcurrentRuntimeManager::release(AppId id) {
  {
    const audit::LockGuard lock(state_mutex_);
    const auto it = running_.find(id);
    if (it == running_.end()) {
      const audit::LockGuard stats_lock(stats_mutex_);
      ++stats_.release_errors;
      release_errors_.push_back(
          {id, "release of unknown or already-released application id " +
                   std::to_string(id.value())});
      return false;
    }
    core::release_mapping(state_, *it->second.app, it->second.mapping);
    running_.erase(it);
#if RTSM_AUDIT
    audit_check("release");
#endif
  }
  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.releases;
  }
  // Compact *before* waking parked requests so their retry plans against
  // the defragmented capacity.
  requeue_waiting(maybe_defrag_after_release());
  return true;
}

bool ConcurrentRuntimeManager::try_preempt_and_commit(
    Request& request, std::vector<Request>& evicted) {
  if (!preemption_.enabled) return false;

  AppId id;
  AdmitOutcome outcome;
  {
    // Victim selection (shared with the serial manager), eviction and
    // commit share one state-lock hold: the mapper runs under the lock —
    // preemption is a rare, last-resort path and the lock is what makes
    // evict+commit atomic against racing admissions (the same trade a
    // defrag pass makes).
    const audit::LockGuard lock(state_mutex_);
    PreemptionPlan plan = plan_preemption(
        state_, running_, *request.app, request.cls, request.deadline_us,
        request.mapping_us, *mapper_, preemption_,
        planner_->options().fragmentation);
    request.attempts += plan.attempts;
    request.mapping_us += plan.mapping_us;
    if (!plan.admits()) return false;

    for (const AppId vid : plan.victims) {
      auto it = running_.find(vid);
      core::release_mapping(state_, *it->second.app, it->second.mapping);
      Request reparked;
      reparked.id = next_request_.fetch_add(1);
      reparked.app = it->second.app;
      reparked.cls = it->second.cls;
      // Re-score for burst ordering so a woken victim competes under the
      // configured PriorityPolicy like any fresh request; no mapper
      // deadline — the original budget bounded an admission that already
      // succeeded.
      reparked.priority = priority_->priority(*reparked.app, 0.0);
      reparked.reparked = true;
      evicted.push_back(std::move(reparked));
      running_.erase(it);
    }
    core::commit_mapping(state_, *request.app, plan.plan.mapping);
    id = AppId{next_app_.fetch_add(1)};
    running_.emplace(id, RunningApp{request.app, plan.plan.mapping,
                                    plan.plan.energy_nj_per_symbol,
                                    request.cls, request.id});

    outcome.request = request.id;
    outcome.status = AdmitStatus::Admitted;
    outcome.app_id = id;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping = std::move(plan.plan);
#if RTSM_AUDIT
    audit_check("preempt");
#endif
  }
  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.preemption_grants;
    stats_.preemption_evictions += evicted.size();
    // Victims re-enter the admission stream as new requests.
    stats_.offered += evicted.size();
  }
  // A preemption plan is a full miss-path placement too: learn it so the
  // next structurally equal arrival can skip the mapper entirely.
  if (shapes_ != nullptr) {
    const shapes::LearnResult learned =
        shapes_->learn(*request.app, outcome.mapping);
    const audit::LockGuard lock(stats_mutex_);
    if (learned.inserted) ++stats_.shape_inserts;
    stats_.shape_evictions += learned.evictions;
  }
  resolve(std::move(request), std::move(outcome));
  return true;
}

void ConcurrentRuntimeManager::park_evicted(std::vector<Request> evicted) {
  if (evicted.empty()) return;
  const audit::LockGuard lock(waiting_mutex_);
  for (Request& victim : evicted) {
    waiting_.push_back(std::move(victim));
  }
}

bool ConcurrentRuntimeManager::maybe_defrag_after_release() {
  if (planner_->options().policy != DefragPolicy::OnReleaseThreshold) {
    return false;
  }
  {
    const audit::LockGuard lock(state_mutex_);
    const double score =
        core::measure_fragmentation(state_, planner_->options().fragmentation)
            .score();
    if (!planner_->triggers_after_release(score)) return false;
  }
  return defrag_pass_locked().migrations > 0;
}

DefragPassResult ConcurrentRuntimeManager::defrag_pass_locked() {
  DefragPassResult pass;
  {
    // The pass re-plans and commits under the state lock: migrations are
    // atomic against concurrent admissions (their validate_and_commit
    // serializes behind the pass and re-validates its own plan after).
    const audit::LockGuard lock(state_mutex_);
    pass = planner_->run_pass(state_, running_);
#if RTSM_AUDIT
    audit_check("defrag");
#endif
  }
  const audit::LockGuard lock(stats_mutex_);
  merge_defrag_stats(stats_, pass);
  return pass;
}

DefragPassResult ConcurrentRuntimeManager::defrag_now() {
  return defrag_pass_locked();
}

SwitchOutcome ConcurrentRuntimeManager::switch_mode(
    AppId id, std::shared_ptr<const kpn::Application> next,
    double deadline_us) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<DefragPassResult> defrag;
  ModeSwitchOptions switch_options;
  switch_options.deadline_us = deadline_us;
  SwitchOutcome out;
  {
    // Plan and commit under the state lock: the switch (including its
    // pinned replan through the shared verification cache) is atomic
    // against racing admissions, exactly like a defrag pass.
    const audit::LockGuard lock(state_mutex_);
    out = switch_mode_in_place(state_, running_, id, std::move(next),
                               *mapper_, planner_.get(),
                               planner_->options().cost, &defrag,
                               switch_options);
#if RTSM_AUDIT
    audit_check("mode-switch");
#endif
  }
  out.switch_us = elapsed_us(start);

  bool committed = false;
  {
    const audit::LockGuard lock(stats_mutex_);
    committed = record_switch_stats(stats_, out);
    if (defrag.has_value()) merge_defrag_stats(stats_, *defrag);
  }
  // A narrower mode frees capacity like a release: wake parked requests.
  if (committed) requeue_waiting();
  return out;
}

void ConcurrentRuntimeManager::wait_idle() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  audit::UniqueLock lock(idle_mutex_);
  idle_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
}

std::vector<AdmitOutcome> ConcurrentRuntimeManager::reject_waiting() {
  std::vector<Request> parked;
  {
    const audit::LockGuard lock(waiting_mutex_);
    // Same epoch discipline as requeue_waiting(): a request about to park
    // concurrently must not strand itself in a list that was just
    // resolved — it observes the bump and retries instead.
    release_epoch_.fetch_add(1);
    parked.swap(waiting_);
  }
  std::vector<AdmitOutcome> outcomes;
  outcomes.reserve(parked.size());
  for (Request& request : parked) {
    AdmitOutcome outcome;
    outcome.request = request.id;
    outcome.status = AdmitStatus::Rejected;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping.failure = "still waiting at end of scenario";
    // Shares resolve()'s bookkeeping but not its finish_one(): a parked
    // request already left the in-flight count when it parked.
    record_outcome(request, outcome);
    outcomes.push_back(outcome);
    request.promise.set_value(std::move(outcome));
  }
  return outcomes;
}

void ConcurrentRuntimeManager::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Without a pool the closed queue may still hold requests: drain them
  // inline so every future resolves.
  pump();
  reject_waiting();
}

core::ResourceState ConcurrentRuntimeManager::state_snapshot() const {
  // Observer fast path: refresh the shared observer scratch (O(changes)
  // under the state lock) and copy it out while holding only the observer
  // mutex — repeated pollers no longer hold up the admission hot path for
  // an O(platform) copy. Lock order: observer before state, nothing nests
  // the other way.
  const audit::LockGuard observer_lock(observer_mutex_);
  {
    const audit::LockGuard lock(state_mutex_);
    state_.refresh_snapshot_into(observer_scratch_);
  }
  return observer_scratch_;
}

double ConcurrentRuntimeManager::mean_occupancy() const {
  const audit::LockGuard lock(state_mutex_);
  return core::mean_occupancy(state_);
}

AdmissionStats ConcurrentRuntimeManager::stats() const {
  AdmissionStats out;
  {
    const audit::LockGuard lock(stats_mutex_);
    out = stats_;
  }
  out.snapshot_reuses = snapshot_reuses_.load(std::memory_order_relaxed);
  out.gated_commits = gated_commits_.load(std::memory_order_relaxed);
  out.validated_commits = validated_commits_.load(std::memory_order_relaxed);
  out.snapshot_time_us =
      static_cast<double>(snapshot_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  out.map_time_us =
      static_cast<double>(map_ns_.load(std::memory_order_relaxed)) / 1000.0;
  out.validate_time_us =
      static_cast<double>(validate_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  out.commit_time_us =
      static_cast<double>(commit_ns_.load(std::memory_order_relaxed)) / 1000.0;
  {
    const audit::LockGuard lock(state_mutex_);
    const core::RefreshStats refresh = state_.refresh_stats();
    out.snapshot_delta_refreshes = refresh.delta_refreshes;
    out.snapshot_full_copies = refresh.full_copies;
    out.journal_entries_replayed = refresh.entries_replayed;
  }
  return out;
}

StatsReport ConcurrentRuntimeManager::stats_report() {
  StatsReport report;
  report.admission = stats();
  report.verification = verification_stats();
  report.shapes = shape_stats();
  if (const auto cache = mapper_->route_cache()) {
    report.route_cache = cache->stats();
  }
  report.release_errors = drain_release_errors();
  return report;
}

verify::EngineStats ConcurrentRuntimeManager::verification_stats() const {
  const auto engine = mapper_->verification_engine();
  return engine ? engine->stats() : verify::EngineStats{};
}

shapes::ShapeLibraryStats ConcurrentRuntimeManager::shape_stats() const {
  return shapes_ != nullptr ? shapes_->stats()
                                    : shapes::ShapeLibraryStats{};
}

std::size_t ConcurrentRuntimeManager::running_count() const {
  const audit::LockGuard lock(state_mutex_);
  return running_.size();
}

std::size_t ConcurrentRuntimeManager::waiting_count() const {
  const audit::LockGuard lock(waiting_mutex_);
  return waiting_.size();
}

std::vector<AppId> ConcurrentRuntimeManager::running_ids() const {
  const audit::LockGuard lock(state_mutex_);
  std::vector<AppId> ids;
  ids.reserve(running_.size());
  for (const auto& [id, run] : running_) ids.push_back(id);
  return ids;
}

core::Mapping ConcurrentRuntimeManager::mapping_of(AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "mapping_of unknown application id");
  return it->second.mapping;
}

std::shared_ptr<const kpn::Application> ConcurrentRuntimeManager::app_of(
    AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "app_of unknown application id");
  return it->second.app;
}

std::string ConcurrentRuntimeManager::display_name(AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "display_name unknown application id");
  return it->second.app->name() + "#" + std::to_string(it->second.instance);
}

double ConcurrentRuntimeManager::total_energy_nj_per_symbol() const {
  const audit::LockGuard lock(state_mutex_);
  double total = 0.0;
  for (const auto& [id, run] : running_) total += run.energy_nj;
  return total;
}

std::vector<ReleaseError> ConcurrentRuntimeManager::drain_release_errors() {
  const audit::LockGuard lock(stats_mutex_);
  return std::exchange(release_errors_, {});
}

std::vector<RequestId> ConcurrentRuntimeManager::resolution_order() const {
  const audit::LockGuard lock(stats_mutex_);
  return resolution_order_;
}

#if RTSM_AUDIT
void ConcurrentRuntimeManager::audit_check(const char* where) const {
  std::vector<audit::LiveApp> running;
  running.reserve(running_.size() + bookings_.size());
  for (const auto& [id, run] : running_) {
    running.push_back({run.app, &run.mapping});
  }
  // A pending booking's placement is live too: its step 4 is running.
  for (const Booking* booking : bookings_) {
    running.push_back({booking->app, &booking->placed});
  }
  audit::audit_state(state_, running,
                     std::string("concurrent_manager/") + where);
}
#endif

}  // namespace rtsm::runtime
