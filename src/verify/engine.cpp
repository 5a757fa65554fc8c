#include "verify/engine.hpp"

#include <utility>

#include "core/csdf_expansion.hpp"
#include "core/resource_state.hpp"
#include "csdf/buffer_sizing.hpp"
#include "util/error.hpp"

namespace rtsm::verify {

namespace {

/// The stream endpoints: first KPN source process and first KPN sink
/// process (by id). The sink's iterations define the period.
struct Endpoints {
  ProcessId source;
  ProcessId sink;
};

Endpoints find_endpoints(const kpn::Application& app) {
  Endpoints ep;
  for (const ProcessId pid : app.process_ids()) {
    if (!ep.source.valid() && app.in_channels(pid).empty()) ep.source = pid;
    if (!ep.sink.valid() && app.out_channels(pid).empty()) ep.sink = pid;
  }
  require(ep.source.valid() && ep.sink.valid(),
          "application has no stream source/sink process");
  return ep;
}

/// When the period is unreachable, blame the slowest implementation: the
/// mapped process whose per-symbol work occupies the largest fraction of
/// the period on its tile.
std::optional<core::FeedbackConstraint> blame_slowest(
    const kpn::Application& app, const arch::Platform& platform,
    const core::Mapping& mapping) {
  ProcessId worst;
  double worst_util = 0.0;
  for (const ProcessId pid : app.process_ids()) {
    if (app.process(pid).is_fixture()) continue;
    const double util = core::impl_utilization(
        app, pid, mapping.impl_of(pid),
        platform.tile_clock_hz(mapping.tile_of(pid)));
    if (util > worst_util) {
      worst_util = util;
      worst = pid;
    }
  }
  if (!worst.valid()) return std::nullopt;
  core::FeedbackConstraint fc;
  fc.kind = core::FeedbackConstraint::Kind::ForbidImplementation;
  fc.process = worst;
  fc.impl = mapping.impl_of(worst);
  fc.reason = "implementation '" +
              app.implementation(worst, mapping.impl_of(worst)).name +
              "' cannot sustain the period (utilization " +
              std::to_string(worst_util) + ")";
  return fc;
}

}  // namespace

VerificationOutcome compute_verification(
    const kpn::Application& app, const arch::Platform& platform,
    const core::Mapping& mapping, const SizingKey& key,
    const std::vector<std::uint32_t>* warm_hint) {
  core::ExpandedGraph expanded = core::expand_mapping(app, platform, mapping);
  const Endpoints ep = find_endpoints(app);

  csdf::BufferSizingConfig cfg;
  cfg.target_period_ps = key.target_period_ps;
  cfg.reference = expanded.process_actor[ep.sink.value()];
  cfg.probe = csdf::LatencyProbe{expanded.process_actor[ep.source.value()],
                                 expanded.process_actor[ep.sink.value()]};
  cfg.simulation = key.simulation;
  cfg.capacity_limit = key.capacity_limit;
  if (warm_hint != nullptr && warm_hint->size() == app.channel_count()) {
    cfg.warm_start = *warm_hint;
  }

  const auto sizing =
      csdf::size_buffers(expanded.graph, expanded.consumer_edge, cfg);

  VerificationOutcome out;
  out.feasible = sizing.feasible;
  out.achieved_period_ps = sizing.achieved_period_ps;
  out.latency_ps = sizing.latency_ps;
  out.simulations = sizing.simulations;
  out.events_simulated = sizing.events_simulated;
  out.events_skipped = sizing.events_skipped;
  out.dominance_skips = sizing.dominance_skips;
  out.warm_started = sizing.warm_started;
  if (sizing.feasible) {
    out.buffer_tokens = sizing.capacities;
  } else {
    out.failure = sizing.message;
    out.feedback = blame_slowest(app, platform, mapping);
  }
  return out;
}

Engine::Engine(EngineOptions options)
    : options_(options), cache_(options.max_entries) {}

std::shared_ptr<const VerificationOutcome> Engine::verify(
    const kpn::Application& app, const arch::Platform& platform,
    const core::Mapping& mapping, const SizingKey& key) {
  MappingSignature signature =
      MappingSignature::of(app, platform, mapping, key);

  if (options_.cache) {
    if (auto cached = cache_.find(signature)) {
      const audit::LockGuard lock(mutex_);
      ++stats_.lookups;
      ++stats_.hits;
      stats_.simulations_saved += cached->simulations;
      stats_.events_saved += cached->events_simulated;
      return cached;
    }
  }

  // Miss: fetch the warm hint for this application skeleton, compute, and
  // publish. The mapper runs outside the engine lock — only the hint fetch
  // and the bookkeeping are serialized.
  const std::uint64_t skeleton = app_skeleton_hash(app);
  std::vector<std::uint32_t> hint;
  bool have_hint = false;
  if (options_.warm_start) {
    const audit::LockGuard lock(mutex_);
    const auto it = warm_hints_.find(skeleton);
    if (it != warm_hints_.end()) {
      hint = it->second;
      have_hint = true;
    }
  }

  auto outcome = std::make_shared<VerificationOutcome>(
      compute_verification(app, platform, mapping, key,
                           have_hint ? &hint : nullptr));

  {
    const audit::LockGuard lock(mutex_);
    ++stats_.lookups;
    ++stats_.misses;
    if (outcome->warm_started) ++stats_.warm_started;
    stats_.simulations += outcome->simulations;
    stats_.events_simulated += outcome->events_simulated;
    stats_.events_skipped += outcome->events_skipped;
    stats_.dominance_skips += outcome->dominance_skips;
    if (options_.warm_start && outcome->feasible) {
      const auto [it, inserted] =
          warm_hints_.insert_or_assign(skeleton, outcome->buffer_tokens);
      (void)it;
      if (inserted) {
        warm_hint_order_.push_back(skeleton);
        while (warm_hints_.size() > options_.max_entries) {
          warm_hints_.erase(warm_hint_order_.front());
          warm_hint_order_.pop_front();
        }
      }
    }
  }
  if (options_.cache) cache_.insert(std::move(signature), outcome);
  return outcome;
}

EngineStats Engine::stats() const {
  const audit::LockGuard lock(mutex_);
  EngineStats out = stats_;
  out.evictions = cache_.evictions();
  out.evicted_while_hot = cache_.evicted_while_hot();
  out.cache_entries = cache_.size();
  out.warm_hints = warm_hints_.size();
  return out;
}

void Engine::clear() {
  cache_.clear();
  const audit::LockGuard lock(mutex_);
  warm_hints_.clear();
  warm_hint_order_.clear();
}

}  // namespace rtsm::verify
