#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "arch/platform.hpp"
#include "core/cancellation.hpp"
#include "core/mapping.hpp"
#include "core/resource_state.hpp"
#include "core/trace.hpp"
#include "kpn/application.hpp"

namespace rtsm::verify {
class Engine;
}  // namespace rtsm::verify

namespace rtsm::noc {
class RouteCache;
}  // namespace rtsm::noc

namespace rtsm::core {

/// Result of a mapping request.
struct MappingResult {
  /// True when a feasible (or, for mappers that skip dataflow verification,
  /// adherent) mapping was found.
  bool success = false;

  Mapping mapping{0, 0};

  /// Total energy per symbol of the returned mapping (processing +
  /// communication), nanojoule.
  double energy_nj_per_symbol = 0.0;

  /// Verified sustained period / latency from step 4, ps (0 when the mapper
  /// does not run the dataflow analysis).
  std::uint64_t achieved_period_ps = 0;
  std::uint64_t latency_ps = 0;

  /// Refinement rounds (or attempts) executed.
  std::uint32_t rounds = 0;

  /// The mapper stopped early because its CancelToken fired (a portfolio
  /// race cancelled a loser, or a time budget expired). Always paired with
  /// success == false; distinguishes "gave up on request" from "no feasible
  /// placement exists" in per-strategy statistics.
  bool cancelled = false;

  std::string failure;

  MappingTrace trace;
};

/// The caller's live resource state, offered to a mapper that can book its
/// placement before verifying it (see Mapper::map_booked). Booking between
/// step 3 and step 4 closes an optimistic admission's conflict window
/// before the expensive step-4 simulation: a plan outraced during steps
/// 1-3 is caught at the booking and never simulated, and other planners'
/// snapshots see the placement while it is being verified.
class PlanBooking {
 public:
  /// What book() did with a placement.
  enum class Result {
    /// Booked in the live state.
    Booked,
    /// Does not fit the snapshot it was planned on: a mapper failure.
    Misfit,
    /// Fits its snapshot but not the live state: the snapshot went stale
    /// during steps 1-3 (a booking conflict).
    Conflict,
  };

  virtual ~PlanBooking() = default;

  /// Books @p placed — process tiles, implementation memory and channel
  /// routes; no buffers — in the live state, replacing any earlier booking
  /// of this call. @p planned_on is the snapshot the placement was planned
  /// against. Unless the result is Booked, nothing is booked and the
  /// mapper must give up this call.
  [[nodiscard]] virtual Result book(const kpn::Application& app,
                                    const Mapping& placed,
                                    const ResourceState& planned_on) = 0;

  /// Drops the current booking, if any (its placement failed step 4).
  virtual void release() = 0;
};

/// Strategy interface of every spatial mapper in the repository: the paper's
/// run-time heuristic (SpatialMapper) and all design-time baselines
/// implement it, so benchmarks, the runtime manager, and tests can select
/// mappers interchangeably (by name via MapperRegistry).
///
/// Contract: map() plans @p app against the residual resources in @p base
/// without modifying @p base. A successful result's mapping must be
/// committable into @p base (see mapping_fits()); commit_mapping() performs
/// the actual reservation.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Stable registry name, e.g. "spatial" or "annealing".
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line human-readable description of the strategy.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Maps @p app against the residual resources in @p base (the run-time
  /// scenario: other applications are already running). @p base is not
  /// modified; commit the result with commit_mapping() to admit the
  /// application.
  [[nodiscard]] virtual MappingResult map(const kpn::Application& app,
                                          const ResourceState& base) const = 0;

  /// map() under cooperative cancellation: mappers that support it
  /// (spatial, genetic, ...) poll @p cancel at round granularity and
  /// return early with result.cancelled set; the default ignores the token
  /// and runs to completion. @p cancel may be null. Used by portfolio
  /// admission to cancel racing losers and enforce a shared time budget.
  [[nodiscard]] virtual MappingResult map(const kpn::Application& app,
                                          const ResourceState& base,
                                          const CancelToken* cancel) const {
    (void)cancel;
    return map(app, base);
  }

  /// map() that books its placement through @p booking once steps 1-3
  /// have settled and before step 4 runs. A successful result leaves its
  /// placement booked and returns that placement with its buffers, so the
  /// caller commits only the buffers (commit_buffers()); a mapper that
  /// gives up releases its booking (the caller releases whatever is left
  /// as well). The default books nothing and runs map(app, base): the
  /// caller then validates the whole plan at the end, as for every mapper
  /// that does not override this.
  [[nodiscard]] virtual MappingResult map_booked(const kpn::Application& app,
                                                 const ResourceState& base,
                                                 PlanBooking& booking) const {
    (void)booking;
    return map(app, base);
  }

  /// Maps @p app onto an otherwise idle @p platform.
  [[nodiscard]] MappingResult map(const kpn::Application& app,
                                  const arch::Platform& platform) const;

  /// The step-4 verification engine this mapper runs its dataflow checks
  /// through, when it has one — lets runtime managers and benches surface
  /// cache hit/miss/events-saved statistics without knowing the concrete
  /// mapper. Null for mappers that never run step 4.
  [[nodiscard]] virtual std::shared_ptr<verify::Engine> verification_engine()
      const {
    return nullptr;
  }

  /// The shared NoC route cache this mapper's step 3 routes through, when
  /// it has one — the same surfacing idiom as verification_engine(), so
  /// runtime managers and benches can report route-cache hit rates without
  /// knowing the concrete mapper. Null for mappers that route uncached (or
  /// never route).
  [[nodiscard]] virtual std::shared_ptr<noc::RouteCache> route_cache() const {
    return nullptr;
  }
};

/// Books a successful mapping's resources (tile utilisation, implementation
/// and buffer memory, link reservations) into @p state.
void commit_mapping(ResourceState& state, const kpn::Application& app,
                    const Mapping& mapping);

/// Releases everything commit_mapping() booked.
void release_mapping(ResourceState& state, const kpn::Application& app,
                     const Mapping& mapping);

/// The buffer part of commit_mapping(): charges each sized channel buffer
/// (token_bytes x tokens) to the memory of its consumer's tile. Every
/// buffer is checked against @p state first; on a misfit the earlier ones
/// are rolled back, nothing stays reserved, and the misfitting channel is
/// returned.
[[nodiscard]] std::optional<ChannelId> commit_buffers(
    ResourceState& state, const kpn::Application& app, const Mapping& mapping);

/// Releases what commit_buffers() reserved.
void release_buffers(ResourceState& state, const kpn::Application& app,
                     const Mapping& mapping);

/// True when @p mapping's demands (compute, memory, process slots, link
/// throughput) all fit the residual capacity of @p base, i.e.
/// commit_mapping() would succeed. Used to screen plans from design-time
/// mappers that ignore the residual state, and as a commit precondition by
/// the runtime manager.
[[nodiscard]] bool mapping_fits(const ResourceState& base,
                                const kpn::Application& app,
                                const Mapping& mapping);

}  // namespace rtsm::core
