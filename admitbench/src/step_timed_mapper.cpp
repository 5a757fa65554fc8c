#include "step_timed_mapper.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "core/channel_routing.hpp"
#include "core/cost.hpp"
#include "core/feasibility.hpp"
#include "core/implementation_selection.hpp"
#include "core/mapping_context.hpp"
#include "core/tile_assignment.hpp"
#include "noc/route_cache.hpp"
#include "verify/engine.hpp"

namespace admitbench {

using namespace rtsm;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

void StepTally::add(const StepTally& other) {
  calls += other.calls;
  successes += other.successes;
  rounds += other.rounds;
  map_ns += other.map_ns;
  setup_ns += other.setup_ns;
  for (int s = 0; s < 4; ++s) step_ns[s] += other.step_ns[s];
}

StepTally StepTally::minus(const StepTally& earlier) const {
  StepTally d = *this;
  d.calls -= earlier.calls;
  d.successes -= earlier.successes;
  d.rounds -= earlier.rounds;
  d.map_ns -= earlier.map_ns;
  d.setup_ns -= earlier.setup_ns;
  for (int s = 0; s < 4; ++s) d.step_ns[s] -= earlier.step_ns[s];
  return d;
}

StepTimedMapper::StepTimedMapper() {
  // The same cache construction as SpatialMapper's constructor under a
  // default MapperConfig (cache_verification and cache_routes on).
  config_.engine = verify::ensure_engine(config_.run_step4, nullptr);
  config_.route_cache = noc::ensure_route_cache(true, nullptr);
}

std::string StepTimedMapper::describe() const {
  return "the spatial mapper's round loop with a timer around each step";
}

core::MappingResult StepTimedMapper::map(const kpn::Application& app,
                                         const core::ResourceState& base) const {
  return map(app, base, nullptr);
}

// Mirrors SpatialMapper::map for the default configuration (steps 2 and 4
// enabled); only the timers are added.
core::MappingResult StepTimedMapper::map(const kpn::Application& app,
                                         const core::ResourceState& base,
                                         const core::CancelToken* cancel) const {
  const Clock::time_point call_start = Clock::now();
  StepTally call;
  call.calls = 1;
  app.validate();

  core::MappingResult result;
  result.mapping = core::Mapping(app.process_count(), app.channel_count());
  core::FeedbackSet feedback;

  const auto finish = [&]() -> core::MappingResult {
    call.successes = result.success ? 1 : 0;
    call.map_ns = ns_since(call_start);
    record(app, call);
    return std::move(result);
  };

  for (std::uint32_t round = 0; round < config_.max_refinement_rounds;
       ++round) {
    if (cancel != nullptr && cancel->stop_requested()) {
      result.cancelled = true;
      result.failure = "cancelled before refinement round " +
                       std::to_string(round + 1);
      return finish();
    }
    result.rounds = round + 1;
    ++call.rounds;

    Clock::time_point t = Clock::now();
    core::ResourceState state = base;
    core::Mapping mapping(app.process_count(), app.channel_count());
    core::MappingTrace::Round& rt = result.trace.rounds.emplace_back();
    core::MappingContext ctx{app,
                             base.platform(),
                             state,
                             feedback,
                             config_.energy,
                             mapping,
                             rt,
                             config_.engine.get(),
                             cancel,
                             config_.route_cache.get()};
    call.setup_ns += ns_since(t);

    t = Clock::now();
    const core::Step1Outcome s1 = core::run_step1(ctx, config_.step1);
    call.step_ns[0] += ns_since(t);
    if (!s1.success) {
      ctx.trace.outcome = "step 1 failed: " + s1.failure;
      result.failure = ctx.trace.outcome;
      return finish();
    }

    t = Clock::now();
    core::run_step2(ctx, config_.step2);
    call.step_ns[1] += ns_since(t);

    t = Clock::now();
    const core::Step3Outcome s3 = core::run_step3(ctx, config_.step3);
    call.step_ns[2] += ns_since(t);
    if (!s3.success) {
      ctx.trace.outcome = "step 3 failed: " + s3.failure;
      result.failure = ctx.trace.outcome;
      if (!s3.feedback) return finish();
      feedback.add(*s3.feedback);
      continue;
    }

    t = Clock::now();
    const core::FeasibilityReport report = core::run_step4(ctx, config_.step4);
    call.step_ns[3] += ns_since(t);
    if (!report.feasible) {
      ctx.trace.outcome = "step 4 failed: " + report.failure;
      result.failure = ctx.trace.outcome;
      if (!report.feedback) return finish();
      feedback.add(*report.feedback);
      continue;
    }
    result.achieved_period_ps = report.achieved_period_ps;
    result.latency_ps = report.latency_ps;

    rt.outcome = "feasible";
    result.success = true;
    result.failure.clear();
    result.mapping = std::move(mapping);
    result.energy_nj_per_symbol = core::total_energy_nj_per_symbol(
        app, base.platform(), result.mapping, config_.energy);
    return finish();
  }

  if (result.failure.empty()) {
    result.failure = "refinement round limit reached";
  }
  return finish();
}

void StepTimedMapper::record(const kpn::Application& app,
                             const StepTally& call) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.add(call);
  pending_[&app].add(call);
}

StepTally StepTimedMapper::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

StepTally StepTimedMapper::take(const kpn::Application* app) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(app);
  if (it == pending_.end()) return {};
  const StepTally tally = it->second;
  pending_.erase(it);
  return tally;
}

StepTally StepTimedMapper::take_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  StepTally sum;
  for (const auto& [app, tally] : pending_) sum.add(tally);
  pending_.clear();
  return sum;
}

}  // namespace admitbench
