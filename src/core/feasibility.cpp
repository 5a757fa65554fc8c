#include "core/feasibility.hpp"

#include <optional>
#include <string>

#include "core/mapper.hpp"
#include "util/error.hpp"
#include "verify/engine.hpp"

namespace rtsm::core {

FeasibilityReport run_step4(MappingContext& ctx,
                            const FeasibilityOptions& options) {
  const kpn::Application& app = ctx.app;
  const arch::Platform& platform = ctx.platform;
  ResourceState& state = ctx.state;
  Mapping& mapping = ctx.mapping;
  Step4Trace& trace = ctx.trace.step4;

  FeasibilityReport report;
  trace.ran = true;

  verify::SizingKey key;
  key.target_period_ps =
      static_cast<std::uint64_t>(app.qos().symbol_period_ns) * 1000ull;
  key.capacity_limit = options.capacity_limit;
  key.simulation = options.simulation;

  // The structural part — CSDF expansion, self-timed buffer sizing, blame
  // derivation — goes through the shared verification engine when one is
  // attached; the engine serves repeated signatures from its cache. The
  // state-dependent checks below always run.
  std::shared_ptr<const verify::VerificationOutcome> outcome =
      ctx.engine != nullptr
          ? ctx.engine->verify(app, platform, mapping, key)
          : std::make_shared<const verify::VerificationOutcome>(
                verify::compute_verification(app, platform, mapping, key));

  report.achieved_period_ps = outcome->achieved_period_ps;
  report.latency_ps = outcome->latency_ps;
  trace.achieved_period_ps = outcome->achieved_period_ps;
  trace.latency_ps = outcome->latency_ps;

  if (!outcome->feasible) {
    report.failure = "throughput constraint violated: " + outcome->failure;
    report.feedback = outcome->feedback;
    trace.feasible = false;
    trace.message = report.failure;
    return report;
  }

  // Record buffers and charge their memory to the consuming tiles. A
  // misfit leaves nothing reserved: the caller retries on the same state,
  // which a partial booking would corrupt.
  trace.buffer_tokens = outcome->buffer_tokens;
  for (const ChannelId cid : app.channel_ids()) {
    mapping.set_buffer_tokens(cid, outcome->buffer_tokens[cid.value()]);
  }
  if (const std::optional<ChannelId> misfit =
          commit_buffers(state, app, mapping)) {
    const kpn::Channel& c = app.channel(*misfit);
    const TileId consumer_tile = mapping.tile_of(c.dst);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(*mapping.buffer_tokens(*misfit)) *
        c.token_bytes;
    report.failure = "buffer of channel '" + c.name + "' (" +
                     std::to_string(bytes) + " B) does not fit tile '" +
                     platform.tile(consumer_tile).name + "'";
    FeedbackConstraint fc;
    fc.kind = FeedbackConstraint::Kind::ForbidTile;
    fc.process = c.dst;
    fc.tile = consumer_tile;
    fc.reason = report.failure;
    report.feedback = fc;
    trace.feasible = false;
    trace.message = report.failure;
    return report;
  }

  // Latency bound, when the ALS specifies one.
  if (app.qos().max_latency_ns) {
    const std::uint64_t bound_ps = *app.qos().max_latency_ns * 1000ull;
    if (outcome->latency_ps > bound_ps) {
      release_buffers(state, app, mapping);
      report.failure = "latency " +
                       std::to_string(outcome->latency_ps / 1000) +
                       "ns exceeds bound " +
                       std::to_string(*app.qos().max_latency_ns) + "ns";
      trace.feasible = false;
      trace.message = report.failure;
      return report;
    }
  }

  report.feasible = true;
  trace.feasible = true;
  trace.message = "feasible";
  return report;
}

}  // namespace rtsm::core
