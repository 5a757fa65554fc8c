#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapper.hpp"
#include "runtime/admission.hpp"
#include "runtime/defrag.hpp"
#include "runtime/manager_options.hpp"
#include "runtime/mode_switch.hpp"
#include "shapes/library.hpp"
#include "verify/engine.hpp"

namespace rtsm::runtime {

class MapperPortfolio;
struct StatsReport;

/// Identifier of a submitted admission request.
using RequestId = std::uint64_t;

/// How a processed admission request ended.
enum class AdmitStatus {
  /// Mapped and committed; the application is running.
  Admitted,
  /// The mapper found no placement and the policy gave up.
  Rejected,
  /// The mapper exceeded the request's wall-clock deadline; the application
  /// was not admitted (a run-time mapper that misses its budget is useless
  /// to a stream that has already started).
  DeadlineMiss,
  /// Parked by a retry policy; resolved after a future release.
  Waiting,
};

/// Outcome of one admission request.
struct AdmitOutcome {
  RequestId request = 0;
  AdmitStatus status = AdmitStatus::Rejected;
  /// Handle of the running application; valid when status == Admitted.
  AppId app_id;
  core::MappingResult mapping;
  /// Wall-clock time the mapper spent on this request, microseconds
  /// (summed over retry attempts).
  double mapping_us = 0.0;
  std::uint32_t attempts = 0;
  /// Admitted from the shape library (anchor instantiation of a learned
  /// placement) instead of a full mapper run.
  bool shape_hit = false;
  /// Name of the portfolio strategy whose plan was committed; empty when
  /// the portfolio is disabled, the admission was a shape hit, or the
  /// unbudgeted fallback run of the primary mapper produced the plan.
  std::string portfolio_winner;
};

/// A release request that could not be honoured: the id was never admitted
/// or was already released. Reported (not silently dropped, not fatal to
/// the event stream) so operators can spot double-release bugs in clients.
struct ReleaseError {
  AppId id;
  std::string message;
  /// Id of the submit_release() call that failed (0 when the release was
  /// applied directly, e.g. ConcurrentRuntimeManager::release()).
  RequestId request = 0;
};

/// Bounded latency sample: exact while fewer than kCapacity values were
/// recorded, an unbiased uniform reservoir (Vitter's algorithm R over a
/// deterministic xorshift64 stream) beyond that. Replaces the unbounded
/// per-request vector — which grew without limit and was copied whole on
/// every percentile query — with O(kCapacity) memory and O(kCapacity)
/// queries under sustained traffic. count/mean/min/max stay exact via
/// running accumulators; interior percentiles are exact until the
/// reservoir first overflows and an estimate thereafter.
class LatencyReservoir {
 public:
  static constexpr std::size_t kCapacity = 2048;

  void record(double value_us);

  /// Values recorded (not the retained sample size).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Values retained; never exceeds kCapacity.
  [[nodiscard]] std::size_t sample_size() const { return samples_.size(); }

  [[nodiscard]] double mean_us() const;
  [[nodiscard]] double min_us() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max_us() const { return count_ == 0 ? 0.0 : max_; }

  /// Percentile @p p in [0, 100] (clamped); 0 when nothing was recorded.
  /// p <= 0 and p >= 100 return the exact stream minimum / maximum even
  /// after the reservoir overflowed.
  [[nodiscard]] double percentile_us(double p) const;

 private:
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// xorshift64 state; fixed seed so runs are reproducible.
  std::uint64_t rng_ = 0x2545f4914f6cdd1dull;
};

/// Per-strategy tallies of portfolio admission (see runtime/portfolio.hpp);
/// indexed like PortfolioOptions::strategies.
struct PortfolioStrategyStats {
  std::string name;
  std::uint64_t runs = 0;      ///< Races in which the strategy started.
  std::uint64_t wins = 0;      ///< Races whose plan this strategy supplied.
  std::uint64_t losses = 0;    ///< Ran (or was cancelled mid-run) but lost.
  std::uint64_t timeouts = 0;  ///< Stopped/skipped by the expired budget.
  double spent_us = 0.0;       ///< Summed mapper wall-clock.
};

/// Counters and latency distribution of the admission stream.
struct AdmissionStats {
  std::uint64_t offered = 0;    ///< Admit requests submitted.
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;    ///< Extra mapping attempts by a retry policy.
  std::uint64_t releases = 0;   ///< Release requests processed.
  std::uint64_t release_errors = 0;  ///< Unknown-id / double releases.
  /// Optimistic validation conflicts: a plan stopped fitting between
  /// snapshot and commit and was re-mapped (concurrent manager only).
  /// The total, booking_conflicts included.
  std::uint64_t conflicts = 0;
  /// The conflicts caught when the mapper booked its placement in the live
  /// state between steps 3 and 4, before its step-4 simulation ran (see
  /// core::PlanBooking).
  std::uint64_t booking_conflicts = 0;

  /// Shape-miss requests admitted inside a region lease (concurrent
  /// manager with leases only).
  std::uint64_t lease_admits = 0;
  /// Requests that tried a lease and went on to the whole-platform loop:
  /// the stripe could not host them, their plan conflicted, or every
  /// stripe was held.
  std::uint64_t lease_fallbacks = 0;

  // -- defragmentation (see runtime/defrag.hpp) ----------------------------
  std::uint64_t defrag_passes = 0;        ///< Passes that ran.
  std::uint64_t migrations = 0;           ///< Applications relocated.
  std::uint64_t migration_failures = 0;   ///< Rolled-back commit attempts.
  /// Parked requests whose wake-up followed a defrag pass that migrated
  /// at least one application in the same release event.
  std::uint64_t parked_woken_by_defrag = 0;
  /// Fragmentation score around the most recent pass.
  double last_fragmentation_before = 0.0;
  double last_fragmentation_after = 0.0;
  /// Summed modelled migration cost, microseconds.
  double migration_cost_us = 0.0;

  // -- shape library (see shapes/library.hpp) ------------------------------
  std::uint64_t shape_hits = 0;    ///< Admissions committed from a shape.
  std::uint64_t shape_misses = 0;  ///< Lookups that ran the full mapper.
  std::uint64_t shape_inserts = 0;    ///< Placements learned on admit.
  std::uint64_t shape_evictions = 0;  ///< Shapes evicted by those inserts.
  /// Anchor transforms screened on behalf of this manager's lookups.
  std::uint64_t shape_anchor_probes = 0;

  /// Snapshot copies served by reusing a per-worker scratch ResourceState
  /// instead of allocating a fresh one (concurrent manager only).
  std::uint64_t snapshot_reuses = 0;

  // -- admission hot path (see docs/architecture.md) -----------------------
  /// Scratch refreshes served by replaying the live state's mutation
  /// journal — O(changes since last sync) instead of the O(platform) full
  /// copy (see core::ResourceState::refresh_snapshot_into).
  std::uint64_t snapshot_delta_refreshes = 0;
  /// Refreshes that fell back to a full copy: first sync of a scratch,
  /// journal wrap, or a scratch mutated since it last synced.
  std::uint64_t snapshot_full_copies = 0;
  /// Journal entries replayed across all delta refreshes.
  std::uint64_t journal_entries_replayed = 0;
  /// Commits that skipped the full mapping_fits re-validation because the
  /// live state's version had not moved since the plan was pre-validated
  /// on its snapshot (concurrent manager only).
  std::uint64_t gated_commits = 0;
  /// Commits that ran the mapping_fits re-validation (the plan's snapshot
  /// was stale, masked, or never pre-validated).
  std::uint64_t validated_commits = 0;
  /// Wall-clock per admission phase, microseconds, summed over requests:
  /// snapshot refreshes, mapper/race/shape-probe planning, fit
  /// (re-)validation, and state commits.
  double snapshot_time_us = 0.0;
  double map_time_us = 0.0;
  double validate_time_us = 0.0;
  double commit_time_us = 0.0;

  // -- portfolio admission (see runtime/portfolio.hpp) ---------------------
  std::uint64_t portfolio_races = 0;  ///< Races run on shape-library misses.
  /// Races that produced no feasible plan (budget exhausted or every
  /// strategy failed); the primary mapper then ran once, unbudgeted.
  std::uint64_t portfolio_fallbacks = 0;
  /// Per-strategy wins/losses/timeouts/budget spend; empty until the first
  /// race.
  std::vector<PortfolioStrategyStats> portfolio;

  // -- preemption (see PreemptionOptions in runtime/admission.hpp) ---------
  std::uint64_t preemption_grants = 0;     ///< Arrivals admitted by evicting.
  std::uint64_t preemption_evictions = 0;  ///< Victims evicted (re-parked).

  // -- mode switches (see switch_mode()) -----------------------------------
  std::uint64_t mode_switches = 0;          ///< switch_mode() calls.
  std::uint64_t switches_in_place = 0;      ///< Committed with pins held.
  std::uint64_t switches_replanned = 0;     ///< Committed via full replan.
  std::uint64_t switches_rolled_back = 0;   ///< Old mode kept on misfit.
  std::uint64_t switch_failures = 0;        ///< Unknown-id switches.
  /// Switches aborted because their own wall-clock deadline blew while
  /// planning (old mode kept; see ModeSwitchOptions::deadline_us).
  std::uint64_t switch_deadline_misses = 0;
  /// Summed modelled migration cost of committed switches, microseconds.
  double switch_migration_cost_us = 0.0;
  /// Wall-clock latency of every switch_mode() call, us (bounded sample).
  LatencyReservoir switch_latencies;

  /// Mapper wall-clock latency of every resolved admit request, us.
  /// Bounded (see LatencyReservoir) so sustained traffic cannot grow the
  /// stats without limit.
  LatencyReservoir latencies;

  /// Latency percentile @p p in [0, 100] over resolved requests (0 when no
  /// request resolved yet).
  [[nodiscard]] double latency_percentile_us(double p) const {
    return latencies.percentile_us(p);
  }
  [[nodiscard]] double mean_latency_us() const { return latencies.mean_us(); }
};

/// Merges one defragmentation pass into @p stats. Shared by both managers
/// and every trigger path (policy-driven, on-reject, defrag_now, the
/// mode-switch misfit retry); the caller holds whatever guards @p stats.
void merge_defrag_stats(AdmissionStats& stats, const DefragPassResult& pass);

/// Counts one switch outcome into @p stats (mode_switches, the per-status
/// counter, the latency sample and the migration cost) and returns
/// whether the switch committed. Shared by both managers; the caller
/// holds whatever guards @p stats.
bool record_switch_stats(AdmissionStats& stats, const SwitchOutcome& out);

/// Run-time admission manager: the paper's run-time scenario as a subsystem.
///
/// Owns the platform's ResourceState and processes a FIFO stream of
/// admit/release requests. Every admission is planned by the pluggable
/// Mapper strategy against the *current* residual resources, screened by
/// mapping_fits(), and booked with commit_mapping(); releases return the
/// reservation with release_mapping(). A pluggable AdmissionPolicy decides
/// whether failed requests are dropped (first-fit) or parked and retried
/// when capacity is next released (retry-with-feedback). An optional
/// DefragPolicy compacts the platform by migrating running applications:
/// after releases (before parked requests are woken) or reactively when an
/// admission fails — see runtime/defrag.hpp.
///
/// With a ShapeLibrary (optionally shared across managers, like the verify
/// engine), admission first tries to instantiate a learned relocatable
/// placement against the live state — the hot path, skipping mapping
/// steps 1-4 — and only falls back to the full mapper on a miss, feeding
/// successful full-path placements back into the library (learn-on-admit).
/// Defragmentation, preemption re-plans and mode switches bypass the
/// library: their placements are position-constrained, and since shapes
/// are position-independent and re-validated against the live state on
/// every use, nothing they do can make a stored shape stale.
class RuntimeManager {
 public:
  /// Builds a manager from the unified options surface (shared with the
  /// concurrent manager; see runtime/manager_options.hpp). Null mapper /
  /// policy default to SpatialMapper / FirstFitAdmission, so
  /// `RuntimeManager(platform, {})` is a paper-faithful manager. Throws
  /// rtsm::Error when options enable the portfolio without a registry or
  /// name an unknown strategy.
  RuntimeManager(const arch::Platform& platform, ManagerOptions options);

  ~RuntimeManager();

  /// Queues an admission request. @p deadline_us > 0 bounds the mapper's
  /// wall-clock budget; exceeding it counts as a deadline miss. @p cls is
  /// the request's priority class (see RequestClass): when the mapper and
  /// the defrag policy both fail the request, a class that outranks
  /// running preemptible applications may evict the cheapest victim set
  /// instead of being rejected (victims are re-queued as parked). The
  /// request is processed by the next drain().
  RequestId submit(std::shared_ptr<const kpn::Application> app,
                   double deadline_us = 0.0, RequestClass cls = {});

  /// Queues the release of a running application (processed in FIFO order
  /// with the admissions around it). Releasing an id that was never
  /// admitted — or already released — is NOT fatal to the stream: drain()
  /// records a ReleaseError (see drain_release_errors()) and continues.
  /// Returns the request id, which a failed release's ReleaseError carries.
  RequestId submit_release(AppId id);

  /// Processes all queued requests in FIFO order. A release wakes parked
  /// requests: they re-enter the queue ahead of later arrivals, oldest
  /// first. Returns the outcomes of every resolved request not yet reported
  /// — including requests resolved inside an admit()/release() convenience
  /// call that were not that call's own, and outcomes stranded by an
  /// exception in an earlier drain. No outcome is ever silently dropped.
  std::vector<AdmitOutcome> drain();

  /// submit() + drain() convenience for interactive callers. Returns this
  /// request's outcome (status Waiting when a retry policy parked it);
  /// outcomes of *other* requests resolved along the way are held for the
  /// next drain().
  AdmitOutcome admit(const kpn::Application& app, double deadline_us = 0.0,
                     RequestClass cls = {});

  /// submit_release() + drain() convenience. Releasing an unknown or
  /// already-released id returns false and records a ReleaseError +
  /// stats().release_errors — the same non-fatal semantics as the queued
  /// drain() path and the concurrent manager, so clients observe one
  /// behaviour regardless of which entry point the release took. Outcomes
  /// of parked requests this release resolves are held for the next
  /// drain().
  bool release(AppId id);

  /// Switches running instance @p id to the graph @p next *in place*: the
  /// processes of @p next that share a name with the old graph are pinned
  /// to their current tiles and only the remaining delta is re-planned
  /// (through the ordinary mapper, so structurally-equal placements hit
  /// the shared step-4 verification cache). The new mode is committed with
  /// a two-phase release/fit/commit whose misfit path restores the old
  /// booking exactly; when no plan fits, one defragmentation pass is
  /// spent before rolling back to the old mode (so a rolled-back switch
  /// may still have compacted *other* applications). The instance keeps
  /// its AppId across the switch. A committed switch may free capacity,
  /// so it wakes parked requests like a release does (their outcomes are
  /// held for the next drain()). @p deadline_us > 0 bounds the switch's
  /// own wall-clock budget: blown while planning, the switch aborts with
  /// SwitchStatus::DeadlineMiss and the old mode keeps running (counted
  /// in stats().switch_deadline_misses).
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us = 0.0);

  /// Hands out (and clears) the release errors recorded since the last
  /// call, in stream order.
  [[nodiscard]] std::vector<ReleaseError> drain_release_errors();

  /// Force-resolves all parked requests as rejected (end of a scenario).
  std::vector<AdmitOutcome> reject_waiting();

  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] std::size_t waiting_count() const { return waiting_.size(); }
  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }

  /// Residual resource view (what the next admission will see).
  [[nodiscard]] const core::ResourceState& state() const { return state_; }

  /// Mean live tile occupancy in [0, 1] — the fleet dispatcher's load
  /// probe (see core::mean_occupancy).
  [[nodiscard]] double mean_occupancy() const;

  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }

  /// One aggregate observability snapshot — admission counters, verify-
  /// engine counters, shape-library counters and the release errors
  /// recorded since the last report (drained, like
  /// drain_release_errors()). Shared shape with the concurrent manager;
  /// StatsReport::to_json() is what the benches embed.
  [[nodiscard]] StatsReport stats_report();

  /// Step-4 verification-engine counters of the underlying mapper (cache
  /// hits/misses across admissions, simulations and events saved). Zeros
  /// when the mapper runs without an engine.
  [[nodiscard]] verify::EngineStats verification_stats() const;

  /// Shape-library counters (library-global when the library is shared;
  /// the per-manager view lives in stats().shape_*). Zeros without a
  /// library.
  [[nodiscard]] shapes::ShapeLibraryStats shape_stats() const;

  /// The shape library this manager admits through; null when disabled.
  [[nodiscard]] const std::shared_ptr<shapes::ShapeLibrary>& shape_library()
      const {
    return shapes_;
  }

  [[nodiscard]] const core::Mapper& mapper() const { return *mapper_; }
  [[nodiscard]] const AdmissionPolicy& policy() const { return *policy_; }
  [[nodiscard]] const DefragOptions& defrag_options() const {
    return planner_.options();
  }

  /// The portfolio this manager races on shape misses; null when disabled.
  [[nodiscard]] const MapperPortfolio* portfolio() const {
    return portfolio_.get();
  }

  /// Runs one defragmentation pass right now, regardless of policy, and
  /// merges its result into stats(). For operators, benches and tests;
  /// the policy-driven passes run inside drain().
  DefragPassResult defrag_now();

  /// Total energy per symbol across running applications, nJ.
  [[nodiscard]] double total_energy_nj_per_symbol() const;

  /// Ids of all running applications, ascending.
  [[nodiscard]] std::vector<AppId> running_ids() const;

  /// Committed mapping of a running application; throws for unknown ids.
  [[nodiscard]] const core::Mapping& mapping_of(AppId id) const;

  /// Application of a running id; throws for unknown ids. With mapping_of
  /// this lets callers replay the surviving commits (the bookkeeping
  /// oracle of the defrag bench and tests).
  [[nodiscard]] std::shared_ptr<const kpn::Application> app_of(AppId id) const;

  /// Display label of a running instance: "<graph name>#<instance>". The
  /// suffix is the admitting request id, so two admissions of the same
  /// graph (e.g. the same hiperlan2_mode_variant twice) stay
  /// distinguishable in bench labels and logs. Throws for unknown ids.
  [[nodiscard]] std::string display_name(AppId id) const;

 private:
  struct Pending {
    enum class Kind { Admit, Release };
    Kind kind = Kind::Admit;
    RequestId request = 0;
    std::shared_ptr<const kpn::Application> app;  // Admit
    AppId target;                                 // Release
    double deadline_us = 0.0;
    RequestClass cls;
    std::uint32_t attempts = 0;
    double mapping_us = 0.0;
    /// An OnReject defrag pass was already spent on this request (the
    /// flag survives parking, matching the concurrent manager's
    /// one-pass-per-request contract).
    bool defragged = false;
    /// This request is a preemption victim re-entering the stream; it
    /// never preempts again (no eviction cascades).
    bool reparked = false;
  };

  /// Runs one mapping attempt for @p pending; returns the outcome, or
  /// nothing when the policy parked the request for a retry.
  [[nodiscard]] std::optional<AdmitOutcome> process_admit(Pending pending);

  /// One planning attempt against the live state: a portfolio race when
  /// configured (with one unbudgeted primary-mapper run as the fallback
  /// when the race has no winner), the primary mapper alone otherwise.
  /// Updates @p pending's attempt/time counters and the portfolio stats;
  /// @p winner receives the winning strategy's name (cleared otherwise).
  core::MappingResult plan_admission(Pending& pending, std::string& winner);
  void process_release(AppId id, RequestId request);

  /// Tries to admit @p pending by evicting lower-priority preemptible
  /// victims (cheapest set first; see docs/architecture.md). On success
  /// the victims are released and re-queued as parked, @p result holds
  /// the arrival's feasible plan against the post-eviction state, and
  /// true is returned. No state is touched on failure.
  bool try_preempt(Pending& pending, core::MappingResult& result);

  /// Moves all parked requests to the queue front (a release or a
  /// committed mode switch freed capacity), oldest first.
  void wake_waiting(bool after_defrag_migration);

  /// Runs a pass when the policy is OnReleaseThreshold and the score
  /// triggers; returns whether a pass migrated anything.
  bool maybe_defrag_after_release();
  void merge_defrag(const DefragPassResult& pass);

#if RTSM_AUDIT
  /// Recomputes the live accounting from first principles against running_
  /// and reports a StateMismatch violation on drift (audit/check_state.hpp).
  void audit_check(const char* where) const;
#endif

  core::ResourceState state_;
  std::shared_ptr<const core::Mapper> mapper_;
  std::shared_ptr<const AdmissionPolicy> policy_;
  DefragPlanner planner_;
  PreemptionOptions preemption_;
  std::shared_ptr<shapes::ShapeLibrary> shapes_;
  /// Raced on shape misses; null when portfolio admission is disabled.
  std::unique_ptr<MapperPortfolio> portfolio_;

  std::deque<Pending> queue_;
  std::vector<Pending> waiting_;
  std::map<AppId, RunningApp> running_;
  /// Resolved-but-unreported outcomes; handed out by the next drain().
  std::vector<AdmitOutcome> resolved_;
  /// Failed releases; handed out by drain_release_errors().
  std::vector<ReleaseError> release_errors_;
  AdmissionStats stats_;

  RequestId next_request_ = 1;
  AppId::value_type next_app_ = 0;
};

}  // namespace rtsm::runtime
