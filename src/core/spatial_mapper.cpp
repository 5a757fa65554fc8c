#include "core/spatial_mapper.hpp"

#include <string>

#include "core/cost.hpp"
#include "core/criteria.hpp"
#include "core/mapping_context.hpp"
#include "util/error.hpp"

namespace rtsm::core {

namespace {

/// Verdict of one pipeline stage within a refinement round.
enum class StageStatus {
  /// Stage succeeded; continue with the next stage.
  Proceed,
  /// Stage failed and emitted feedback; start the next refinement round.
  Refine,
  /// Stage failed without usable feedback; the search space is exhausted.
  Abort,
};

/// Stage 1: assign implementations to processes (greedy by desirability).
StageStatus select_implementations(MappingContext& ctx,
                                   const MapperConfig& config,
                                   MappingResult& result) {
  const Step1Outcome s1 = run_step1(ctx, config.step1);
  if (s1.success) return StageStatus::Proceed;
  ctx.trace.outcome = "step 1 failed: " + s1.failure;
  result.failure = ctx.trace.outcome;
  // Step 1 exhausts options monotonically; more rounds cannot help unless
  // feedback shrinks elsewhere, so stop here.
  return StageStatus::Abort;
}

/// Stage 2: refine the placement by local search (optional).
StageStatus refine_placement(MappingContext& ctx, const MapperConfig& config) {
  if (config.run_step2) {
    run_step2(ctx, config.step2);
  } else {
    ctx.trace.step2.initial_cost = ctx.trace.step2.final_cost =
        placement_cost(ctx.app, ctx.platform, ctx.mapping,
                       config.step2.cost_model, config.energy);
  }
  return StageStatus::Proceed;
}

/// Stage 3: assign channels to NoC paths.
StageStatus route_channels(MappingContext& ctx, const MapperConfig& config,
                           MappingResult& result, FeedbackSet& feedback) {
  const Step3Outcome s3 = run_step3(ctx, config.step3);
  if (s3.success) return StageStatus::Proceed;
  ctx.trace.outcome = "step 3 failed: " + s3.failure;
  result.failure = ctx.trace.outcome;
  if (!s3.feedback) return StageStatus::Abort;
  feedback.add(*s3.feedback);
  return StageStatus::Refine;
}

/// Stage 4: verify application constraints via dataflow analysis (optional).
StageStatus verify_constraints(MappingContext& ctx, const MapperConfig& config,
                               MappingResult& result, FeedbackSet& feedback) {
  if (!config.run_step4) return StageStatus::Proceed;
  const FeasibilityReport report = run_step4(ctx, config.step4);
  if (report.feasible) {
    result.achieved_period_ps = report.achieved_period_ps;
    result.latency_ps = report.latency_ps;
    return StageStatus::Proceed;
  }
  ctx.trace.outcome = "step 4 failed: " + report.failure;
  result.failure = ctx.trace.outcome;
  if (!report.feedback) return StageStatus::Abort;
  feedback.add(*report.feedback);
  return StageStatus::Refine;
}

}  // namespace

SpatialMapper::SpatialMapper(MapperConfig config)
    : config_(std::move(config)) {
  // cache_verification=false means exactly that — even an explicitly
  // passed engine is dropped, so every step 4 recomputes from scratch.
  config_.engine = config_.cache_verification
                       ? verify::ensure_engine(config_.run_step4,
                                               std::move(config_.engine))
                       : nullptr;
  // Same contract for step 3: cache_routes=false drops even an explicitly
  // passed cache.
  config_.route_cache =
      config_.cache_routes
          ? noc::ensure_route_cache(true, std::move(config_.route_cache))
          : nullptr;
}

std::string SpatialMapper::describe() const {
  return "paper's four-step run-time heuristic: desirability-ordered "
         "implementation selection, local-search placement, incremental "
         "routing, dataflow verification, with iterative refinement";
}

MappingResult SpatialMapper::map(const kpn::Application& app,
                                 const ResourceState& base) const {
  return map(app, base, nullptr);
}

MappingResult SpatialMapper::map(const kpn::Application& app,
                                 const ResourceState& base,
                                 const CancelToken* cancel) const {
  return run(app, base, cancel, nullptr);
}

MappingResult SpatialMapper::map_booked(const kpn::Application& app,
                                        const ResourceState& base,
                                        PlanBooking& booking) const {
  return run(app, base, nullptr, config_.run_step4 ? &booking : nullptr);
}

MappingResult SpatialMapper::run(const kpn::Application& app,
                                 const ResourceState& base,
                                 const CancelToken* cancel,
                                 PlanBooking* booking) const {
  app.validate();

  MappingResult result;
  result.mapping = Mapping(app.process_count(), app.channel_count());

  FeedbackSet feedback;

  for (std::uint32_t round = 0; round < config_.max_refinement_rounds;
       ++round) {
    if (cancel != nullptr && cancel->stop_requested()) {
      result.cancelled = true;
      result.failure = "cancelled before refinement round " +
                       std::to_string(round + 1);
      return result;
    }
    result.rounds = round + 1;

    // Each round works on a private copy of the residual resources and a
    // fresh mapping, so a failed round leaves no partial reservations.
    ResourceState state = base;
    Mapping mapping(app.process_count(), app.channel_count());
    MappingTrace::Round& rt = result.trace.rounds.emplace_back();
    MappingContext ctx{app,    base.platform(), state,  feedback,
                       config_.energy, mapping, rt,
                       config_.engine.get(), cancel,
                       config_.route_cache.get()};

    StageStatus status = select_implementations(ctx, config_, result);
    if (status == StageStatus::Proceed) status = refine_placement(ctx, config_);
    if (status == StageStatus::Proceed) {
      status = route_channels(ctx, config_, result, feedback);
    }
    // Book the placement before its step-4 simulation: the snapshot may
    // have gone stale during steps 1-3, and a stale plan is cheapest to
    // drop here. A refused booking ends the call; on a conflict the caller
    // re-plans.
    if (status == StageStatus::Proceed && booking != nullptr) {
      const PlanBooking::Result booked = booking->book(app, mapping, base);
      if (booked != PlanBooking::Result::Booked) {
        rt.outcome = booked == PlanBooking::Result::Conflict
                         ? "booking conflict: the placement no longer fits"
                         : "mapping does not fit the residual resources";
        result.failure = rt.outcome;
        return result;
      }
    }
    if (status == StageStatus::Proceed) {
      status = verify_constraints(ctx, config_, result, feedback);
      if (status != StageStatus::Proceed && booking != nullptr) {
        booking->release();
      }
    }

    if (status == StageStatus::Abort) return result;
    if (status == StageStatus::Refine) continue;

    rt.outcome = "feasible";
    result.success = true;
    result.failure.clear();
    result.mapping = std::move(mapping);
    result.energy_nj_per_symbol = total_energy_nj_per_symbol(
        app, base.platform(), result.mapping, config_.energy);
    return result;
  }

  if (result.failure.empty()) {
    result.failure = "refinement round limit reached";
  }
  return result;
}

}  // namespace rtsm::core
