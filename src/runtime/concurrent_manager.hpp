#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "arch/platform.hpp"
#include "audit/mutex.hpp"
#include "core/mapper.hpp"
#include "runtime/admission.hpp"
#include "runtime/manager_options.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/runtime_manager.hpp"

namespace rtsm::runtime {

class PortfolioRace;

/// Tuning knobs of the ConcurrentRuntimeManager.
struct ConcurrentOptions {
  /// Worker threads consuming the arrival queue. 0 = no pool: requests
  /// queue up and are processed inline by pump() (or admit()) on the
  /// caller's thread — deterministic, used by tests and for embedding the
  /// manager into an external event loop.
  std::uint32_t workers = 4;

  /// Bound of the arrival queue. submit() blocks while the queue is full,
  /// back-pressuring arrival sources instead of growing without limit.
  std::size_t queue_capacity = 256;

  /// Arrivals drained per worker wake: one burst batch. The batch is
  /// reordered by the PriorityPolicy and admitted greedily, so a burst is
  /// admitted in priority order even though arrivals raced.
  std::size_t max_batch = 8;

  /// Re-map attempts after an optimistic validation conflict (the residual
  /// state changed between snapshot and commit so the plan no longer
  /// fits). Each retry plans against a fresh snapshot.
  std::uint32_t validation_retries = 3;

  /// Batch-ordering policy: how requests within one drained burst are
  /// ranked (after the RequestClass, before arrival order). Null defaults
  /// to FifoPriority.
  std::shared_ptr<const PriorityPolicy> priority;
};

/// Thread-safe run-time admission manager: concurrent arrivals, a worker
/// pool, and optimistic map-then-validate-then-commit booking.
///
/// The expensive part of an admission — running the spatial mapper — is
/// executed on a value snapshot of the ResourceState *outside* any lock;
/// only the fit re-check (mapping_fits) and the reservation
/// (commit_mapping) are serialized on the state mutex. When the residual
/// state changed in between and the plan no longer fits, the request is
/// re-mapped against a fresh snapshot (a bounded number of times) — the
/// classic optimistic-concurrency loop, which works because admissions
/// rarely contend for the same tiles on a large platform.
///
/// A mapper that books (core::Mapper::map_booked; the SpatialMapper does)
/// shortens that loop's conflict window to steps 1-3: its placement is
/// validated and booked in the live state before the step-4 simulation,
/// which then runs outside the lock, and the final commit adds only the
/// buffers. A failed step 4, a deadline miss or an exception releases the
/// booking. Portfolio races, shape hits and mappers that do not book still
/// validate the whole plan at the end.
///
/// Region leases make that loop conflict-free when more than one planner
/// runs (workers >= 2, portfolio off). The mesh is split into
/// min(workers + 1, mesh width) vertical stripes, one more than there are
/// planners, so a planner always finds a stripe no other planner holds.
/// Each shape-miss attempt try-locks the least-occupied free stripe and
/// maps on a snapshot with every tile outside it saturated. A booking
/// mapper ends the lease once its placement is booked in the live state;
/// any other mapper holds it through its end-of-plan validation. A stripe
/// that cannot host the application falls back to the whole-platform
/// optimistic loop, so a lease never makes a request less admissible
/// (stats().lease_admits, stats().lease_fallbacks).
///
/// Semantics relative to the serial RuntimeManager:
/// - submit() returns a std::future<AdmitOutcome> instead of feeding a
///   drain() stream; resolution order across racing requests is
///   nondeterministic (within one drained batch it follows the
///   PriorityPolicy).
/// - release() applies immediately (it only takes the state lock) and
///   wakes parked requests by re-queueing them.
/// - A retry policy parks failed requests exactly like the serial manager;
///   a parked request's future resolves after a later release readmits it,
///   or when reject_waiting()/shutdown() gives up on it.
class ConcurrentRuntimeManager {
 public:
  /// Builds a manager from the unified options surface shared with the
  /// serial RuntimeManager (mapper / policy / defrag / preemption / shapes
  /// / portfolio; see runtime/manager_options.hpp) plus the pool tuning in
  /// @p options. Null mapper / policy / priority default to SpatialMapper,
  /// FirstFitAdmission and FifoPriority. Throws rtsm::Error when @p manager
  /// enables the portfolio without a registry or names an unknown
  /// strategy.
  ConcurrentRuntimeManager(const arch::Platform& platform,
                           ManagerOptions manager,
                           ConcurrentOptions options = {});

  ConcurrentRuntimeManager(const ConcurrentRuntimeManager&) = delete;
  ConcurrentRuntimeManager& operator=(const ConcurrentRuntimeManager&) =
      delete;

  /// Joins the workers; queued requests are still processed, parked ones
  /// are rejected (see shutdown()).
  ~ConcurrentRuntimeManager();

  /// Enqueues an admission request from any thread; blocks while the
  /// arrival queue is full. The future resolves when the request is
  /// admitted, rejected or misses its deadline; with a retry policy it
  /// stays pending while the request is parked. @p cls orders the request
  /// within its drained burst (before the PriorityPolicy tie-break) and
  /// gates preemption: an otherwise-rejected arrival whose class outranks
  /// running preemptible applications may evict the cheapest victim set
  /// (victims are re-parked; see RequestClass).
  std::future<AdmitOutcome> submit(std::shared_ptr<const kpn::Application> app,
                                   double deadline_us = 0.0,
                                   RequestClass cls = {});

  /// submit() + future wait. With workers == 0 the caller's thread pumps
  /// the queue first. Do not combine with a retry policy when nothing else
  /// drives releases — a parked request would block forever.
  AdmitOutcome admit(const kpn::Application& app, double deadline_us = 0.0,
                     RequestClass cls = {});

  /// Releases a running application immediately (thread-safe) and wakes
  /// parked requests. Returns false — and records a ReleaseError — when
  /// the id is unknown or already released (the one release contract both
  /// managers share).
  bool release(AppId id);

  /// Switches running instance @p id to graph @p next in place — see
  /// RuntimeManager::switch_mode for the pin/replan/rollback contract.
  /// The plan *and* commit run under the state lock (like a defrag pass),
  /// so the switch is atomic against racing admissions and releases; the
  /// instance keeps its AppId. A committed switch wakes parked requests.
  /// @p deadline_us > 0 bounds the switch's own wall-clock budget
  /// (SwitchStatus::DeadlineMiss + old mode kept when blown).
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us = 0.0);

  /// Processes queued requests inline on the caller's thread until the
  /// queue is empty. The workers == 0 mode's event loop; also safe to call
  /// concurrently with a running pool (the caller just becomes an extra
  /// worker for a while).
  void pump();

  /// Blocks until every submitted request has been resolved or parked.
  /// (Parked requests are waiting for a future release, not for a worker —
  /// counting them as in-flight would deadlock the caller.)
  void wait_idle();

  /// Force-resolves all parked requests as rejected; returns their
  /// outcomes (their futures resolve too).
  std::vector<AdmitOutcome> reject_waiting();

  /// Stops accepting new requests, drains the queue, joins the workers and
  /// rejects everything still parked. Idempotent; called by the
  /// destructor.
  void shutdown();

  // -- thread-safe observers (values are copied out under the lock) -------

  /// Residual resource snapshot (what a new admission would see).
  [[nodiscard]] core::ResourceState state_snapshot() const;

  /// Mean live tile occupancy in [0, 1], read under the state lock in one
  /// O(tiles) scan (no snapshot copy) — the fleet dispatcher's load probe.
  [[nodiscard]] double mean_occupancy() const;

  [[nodiscard]] AdmissionStats stats() const;

  /// One aggregate observability snapshot (admission + verification +
  /// shape-library counters, plus the release errors drained like
  /// drain_release_errors()). Identical shape to
  /// RuntimeManager::stats_report(); StatsReport::to_json() is what the
  /// benches embed.
  [[nodiscard]] StatsReport stats_report();

  /// Step-4 verification-engine counters of the underlying mapper — the
  /// engine is thread-safe, so this is just a snapshot of its stats.
  /// Zeros when the mapper runs without an engine.
  [[nodiscard]] verify::EngineStats verification_stats() const;

  /// Shape-library counters (library-global when the library is shared;
  /// the per-manager view lives in stats().shape_*). Zeros without a
  /// library.
  [[nodiscard]] shapes::ShapeLibraryStats shape_stats() const;

  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::size_t waiting_count() const;
  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }

  [[nodiscard]] std::vector<AppId> running_ids() const;
  [[nodiscard]] core::Mapping mapping_of(AppId id) const;
  [[nodiscard]] std::shared_ptr<const kpn::Application> app_of(AppId id) const;
  /// "<graph name>#<instance>" — unique even when graph names collide.
  [[nodiscard]] std::string display_name(AppId id) const;
  [[nodiscard]] double total_energy_nj_per_symbol() const;

  /// Hands out (and clears) recorded release errors.
  [[nodiscard]] std::vector<ReleaseError> drain_release_errors();

  /// Request ids in the order they were resolved (admitted / rejected /
  /// deadline-missed) — the observable effect of batch reordering.
  [[nodiscard]] std::vector<RequestId> resolution_order() const;

  [[nodiscard]] const core::Mapper& mapper() const { return *mapper_; }
  [[nodiscard]] const AdmissionPolicy& policy() const { return *policy_; }
  [[nodiscard]] const PriorityPolicy& priority_policy() const {
    return *priority_;
  }
  [[nodiscard]] const ConcurrentOptions& options() const { return options_; }

  /// The portfolio raced on shape misses; null when disabled.
  [[nodiscard]] const MapperPortfolio* portfolio() const {
    return portfolio_.get();
  }

  /// Lease stripe hosting @p tile (tiles are partitioned into vertical mesh
  /// stripes); always 0 when leases are off.
  [[nodiscard]] std::size_t stripe_of(TileId tile) const;

  /// Lease stripes: min(workers + 1, mesh width) when more than one
  /// planner runs and the portfolio is off, else 0 (no leases).
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

  /// Runs one defragmentation pass right now (regardless of policy) under
  /// the state lock and merges its result into stats(). For operators,
  /// benches and tests.
  DefragPassResult defrag_now();

 private:
  struct Request {
    RequestId id = 0;
    std::shared_ptr<const kpn::Application> app;
    double deadline_us = 0.0;
    double priority = 0.0;
    RequestClass cls;
    std::uint32_t attempts = 0;
    double mapping_us = 0.0;
    /// An OnReject defrag pass was already spent on this request.
    bool defragged = false;
    /// Preemption victim re-entering the stream; never preempts again.
    bool reparked = false;
    /// The plan being committed was made in a region lease.
    bool leased = false;
    /// Winning strategy of the portfolio race that produced the current
    /// plan (copied onto the outcome by validate_and_commit).
    std::string portfolio_winner;
    std::promise<AdmitOutcome> promise;
  };

  /// One queue entry: a client admission request, or — when race is set —
  /// a helper job lending the popping worker to another worker's portfolio
  /// race (strategy #strategy of that race). Helpers run before the
  /// batch's requests, carry no promise and are not counted in-flight; a
  /// helper whose race already closed is a no-op.
  struct Job {
    Request request;
    std::shared_ptr<PortfolioRace> race;
    std::size_t strategy = 0;
  };

  struct Stripe {
    /// One class for every stripe: a planner holds at most one lease, and
    /// only ever try-locks it, so lease locks never nest.
    audit::Mutex mutex{audit::LockRank::kManagerLease, "manager.lease"};
  };

  /// A planner's hold on one stripe (defined in the .cpp); ends on
  /// destruction at the latest.
  class Lease;

  void worker_loop();
  /// Runs one popped batch: helper jobs first (a racing owner may be
  /// blocked on them), then the real requests through process_batch.
  void process_jobs(std::vector<Job> jobs, core::ResourceState& scratch);
  /// @p scratch is the calling worker's reusable snapshot buffer (the
  /// per-attempt ResourceState copies land in it instead of freshly
  /// allocated snapshots; see stats().snapshot_reuses).
  void process_batch(std::vector<Request> batch, core::ResourceState& scratch);
  void process_request(Request request, core::ResourceState& scratch);

  /// Shape-library hot path: probe on @p scratch, commit through
  /// validate_and_commit, re-probe on conflict (bounded by
  /// validation_retries). True when the request was resolved.
  bool try_shape_admit(Request& request, core::ResourceState& scratch);

  /// The manager's side of core::PlanBooking (defined in the .cpp): one
  /// placement booked in state_ while its step 4 runs, released on
  /// destruction unless commit_booked() consumed it. A booking made under
  /// a lease ends the lease.
  class Booking;

  /// Region-lease phase: leases the least-occupied free stripe, maps on
  /// its masked snapshot and commits through the booking (or, for a
  /// mapper that does not book, end-of-plan validation). True when the
  /// request was resolved (admitted or deadline miss); false sends it on
  /// to the whole-platform loop (stats().lease_fallbacks).
  bool try_lease_admit(Request& request, core::ResourceState& scratch);

  /// Try-locks the free stripes in order of live occupancy, least first,
  /// and returns the one it locked; nullopt when every stripe is held.
  std::optional<std::size_t> lock_free_stripe();

  /// One mapping attempt against @p base; updates attempt counters. With
  /// @p booking the mapper may book its placement before step 4.
  core::MappingResult run_mapper(Request& request,
                                 const core::ResourceState& base,
                                 Booking* booking = nullptr);

  /// One portfolio race against @p base: strategies 1..N-1 are offered to
  /// idle workers as helper jobs (try_push — the owner must never block on
  /// a full queue), the owner runs strategy 0 and then claims whatever no
  /// helper picked up, so the race finishes with any pool size. Returns
  /// the winner's plan, or — when the race has no winner — one unbudgeted
  /// run of the primary mapper (portfolio_fallbacks). @p base must stay
  /// valid for the whole call; the owner blocks in close_and_wait until
  /// every helper is done with it.
  core::MappingResult run_race(Request& request,
                               const core::ResourceState& base);

  /// Fit re-check + reservation under the state lock. False on conflict.
  /// @p planned_on, when non-null, is the scratch snapshot the plan was
  /// already pre-validated against (mapping_fits ran on it after its last
  /// refresh and passed, and it was not mutated since). If that scratch is
  /// still version-synced with the live state under the lock, the live
  /// state is bit-identical to it and the mapping_fits re-validation is
  /// skipped (stats().gated_commits); any intervening commit, release,
  /// defrag or switch bumps the live version and forces the full re-check
  /// (stats().validated_commits). @p shape_hit marks the plan as a
  /// shape-library instantiation (tagged on the outcome; a miss-path
  /// success learns into the library here).
  bool validate_and_commit(Request& request, core::MappingResult& result,
                           const core::ResourceState* planned_on = nullptr,
                           bool shape_hit = false);

  /// Final commit of a plan whose placement @p booking holds: adds only
  /// the buffers, each checked with tile_fits against the live state, and
  /// turns the booking into a running application. False on a buffer
  /// misfit (a conflict); the booking is then released and the parked
  /// list woken.
  bool commit_booked(Request& request, core::MappingResult& result,
                     Booking& booking);

  /// Booking internals: validate @p placed against @p planned_on, then
  /// against the live state (or take the version gate when @p planned_on
  /// is still synced with it) and book it. Release undoes a held booking
  /// and wakes the parked list: the freed capacity may be what a parked
  /// request failed on.
  core::PlanBooking::Result book_placement(
      Booking& booking, const core::Mapping& placed,
      const core::ResourceState& planned_on);
  void release_booking(Booking& booking);
  void release_booking_locked(Booking& booking) RTSM_REQUIRES(state_mutex_);

  /// Resolves @p request as admitted under @p id after its commit, and
  /// learns a miss-path placement into the shape library.
  void resolve_admitted(Request& request, core::MappingResult& result,
                        AppId id, bool shape_hit);

  /// Refreshes @p out from the live state under the state lock: deltas
  /// since @p out's last sync are replayed from the state's journal
  /// (O(changes)); a first sync, a journal wrap or a mutated @p out falls
  /// back to a full copy-assign that still reuses @p out's vector
  /// capacity. Arms @p out's version token, which validate_and_commit's
  /// commit gate checks.
  void snapshot_state_into(core::ResourceState& out) const;

  /// snapshot_state_into + all tiles outside @p stripe saturated.
  void masked_snapshot_into(std::size_t stripe,
                            core::ResourceState& out) const;

  /// Evicts lower-priority preemptible victims for @p request and commits
  /// its plan, all under one state-lock hold (atomic against racing
  /// admissions). On success the outcome is resolved and the evicted
  /// victims are returned through @p evicted for re-parking (done by the
  /// caller *outside* the state lock — lock order: state before waiting
  /// is never taken). False leaves all state untouched.
  bool try_preempt_and_commit(Request& request,
                              std::vector<Request>& evicted);
  /// Re-parks preemption victims (fresh request ids, reparked flag).
  void park_evicted(std::vector<Request> evicted);

#if RTSM_AUDIT
  /// RTSM_AUDIT boundary hook: rebuilds the books from running_ and the
  /// pending bookings via audit::check_state and reports any drift as a
  /// violation. Called at every commit/release/defrag/switch/preemption
  /// and booking boundary, under state_mutex_.
  void audit_check(const char* where) const RTSM_REQUIRES(state_mutex_);
#endif

  /// One defrag pass under the state lock; stats merged afterwards.
  DefragPassResult defrag_pass_locked();
  /// OnReleaseThreshold trigger: pass when the score is over threshold.
  /// Returns whether a pass migrated anything.
  bool maybe_defrag_after_release();

  /// Outcome bookkeeping shared by every resolution path: counters,
  /// latency sample, resolution order.
  void record_outcome(const Request& request, const AdmitOutcome& outcome);
  void resolve(Request request, AdmitOutcome outcome);
  /// Resolves @p request as rejected because the manager is shut down.
  void reject_shut_down(Request request);
  /// Resolves @p request as a deadline miss of its mapping budget.
  void resolve_deadline_miss(Request request);

  /// Parks @p request — unless a release advanced the epoch past
  /// @p epoch_seen since the failed attempt planned its snapshot, in which
  /// case parking would miss that release's wake-up (the lost-wakeup race)
  /// and the caller must retry against the fresh state instead. Returns
  /// whether the request was parked.
  [[nodiscard]] bool try_park(Request& request, std::uint64_t epoch_seen);

  /// Moves parked requests back into the queue after a release, or after a
  /// booking was released without a commit. @p after_defrag_migration
  /// marks the wake as following a defrag pass that moved something
  /// (counted in parked_woken_by_defrag). A planning thread
  /// (@p from_planner) never blocks on the full queue it consumes: the
  /// requests that do not fit stay parked and wake_deferred_ is set.
  void requeue_waiting(bool after_defrag_migration = false,
                       bool from_planner = false);
  /// Runs a wake that requeue_waiting() deferred on a full queue; called by
  /// each consumer right after it popped a batch, when the queue has room.
  void retry_deferred_wake();
  /// Decrements the in-flight count and wakes wait_idle().
  void finish_one();

  const arch::Platform* platform_;
  std::shared_ptr<const core::Mapper> mapper_;
  std::shared_ptr<const AdmissionPolicy> policy_;
  std::shared_ptr<const PriorityPolicy> priority_;
  ConcurrentOptions options_;
  /// Manager-level knobs from ManagerOptions (the pool tuning stays in
  /// options_).
  PreemptionOptions preemption_;
  std::shared_ptr<shapes::ShapeLibrary> shapes_;
  std::unique_ptr<DefragPlanner> planner_;
  /// Raced on shape misses; null when portfolio admission is disabled.
  std::unique_ptr<MapperPortfolio> portfolio_;

  /// Guards state_ and running_ (commit + bookkeeping are one atomic
  /// step). Never held while an *admission* mapper runs; a defrag pass
  /// does hold it while re-planning, serializing compaction against
  /// commits (see docs/architecture.md, migration safety) — which is why
  /// the mapper-shared cache locks rank above it.
  mutable audit::Mutex state_mutex_{audit::LockRank::kManagerState,
                                    "manager.state"};
  core::ResourceState state_ RTSM_GUARDED_BY(state_mutex_);
  std::map<AppId, RunningApp> running_ RTSM_GUARDED_BY(state_mutex_);
  /// Placements booked in state_ whose step 4 is still running: live
  /// resources that running_ does not account for yet.
  std::vector<const Booking*> bookings_ RTSM_GUARDED_BY(state_mutex_);

  /// Observer-path snapshot buffer: state_snapshot() delta-refreshes this
  /// scratch under the state lock and copies it out under observer_mutex_
  /// only, so repeated observers cost O(changes) of state-lock hold time
  /// instead of O(platform). Lock order: observer_mutex_ before
  /// state_mutex_ (no other path takes both).
  mutable audit::Mutex observer_mutex_{audit::LockRank::kManagerObserver,
                                       "manager.observer"};
  mutable core::ResourceState observer_scratch_
      RTSM_GUARDED_BY(observer_mutex_);

  /// Inline-pump scratch: pump() reuses this buffer across calls (so the
  /// workers == 0 mode delta-refreshes like a pool worker instead of
  /// paying a cold full copy per pump). Try-locked; a second thread
  /// pumping concurrently falls back to a local scratch. Outermost manager
  /// lock: held across whole admissions (which take every other lock).
  audit::Mutex pump_mutex_{audit::LockRank::kManagerPump, "manager.pump"};
  core::ResourceState pump_scratch_ RTSM_GUARDED_BY(pump_mutex_);

  mutable audit::Mutex stats_mutex_{audit::LockRank::kManagerStats,
                                    "manager.stats"};
  AdmissionStats stats_ RTSM_GUARDED_BY(stats_mutex_);
  /// Snapshot copies served from a per-worker scratch buffer (atomic: the
  /// hot path must not take stats_mutex_ per attempt); merged into
  /// stats().snapshot_reuses on read.
  mutable std::atomic<std::uint64_t> snapshot_reuses_{0};
  /// Commit-gate and per-phase timing tallies (atomic for the same
  /// reason; merged into stats() on read). Times are nanoseconds.
  mutable std::atomic<std::uint64_t> gated_commits_{0};
  mutable std::atomic<std::uint64_t> validated_commits_{0};
  mutable std::atomic<std::uint64_t> snapshot_ns_{0};
  mutable std::atomic<std::uint64_t> map_ns_{0};
  mutable std::atomic<std::uint64_t> validate_ns_{0};
  mutable std::atomic<std::uint64_t> commit_ns_{0};
  std::vector<ReleaseError> release_errors_ RTSM_GUARDED_BY(stats_mutex_);
  std::vector<RequestId> resolution_order_ RTSM_GUARDED_BY(stats_mutex_);

  mutable audit::Mutex waiting_mutex_{audit::LockRank::kManagerWaiting,
                                      "manager.waiting"};
  std::vector<Request> waiting_ RTSM_GUARDED_BY(waiting_mutex_);
  /// Bumped (under waiting_mutex_) by every wake of the parked list; a
  /// worker re-checks it under the same lock before parking so a release
  /// cannot slip between a failed attempt and the park (see try_park).
  std::atomic<std::uint64_t> release_epoch_{0};
  /// A planner's wake found the queue full and left requests parked; the
  /// next consumer to pop a batch wakes them (retry_deferred_wake).
  std::atomic<bool> wake_deferred_{false};

  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  /// Empty when leases are off.
  std::vector<std::unique_ptr<Stripe>> stripes_;

  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint32_t> next_app_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> stopped_{false};
  /// Leaf: wait_idle() parks here; finish_one() only signals under it.
  audit::Mutex idle_mutex_{audit::LockRank::kManagerIdle, "manager.idle"};
  std::condition_variable_any idle_cv_;
};

}  // namespace rtsm::runtime
