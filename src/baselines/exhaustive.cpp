#include "baselines/exhaustive.hpp"

#include <algorithm>
#include <limits>

#include "baselines/design_time_adapter.hpp"
#include "core/channel_routing.hpp"
#include "core/cost.hpp"
#include "core/resource_state.hpp"
#include "util/error.hpp"

namespace rtsm::baselines {

namespace {

using core::Mapping;
using core::ResourceState;

class Search {
 public:
  Search(const kpn::Application& app, const arch::Platform& platform,
         const ExhaustiveOptions& options)
      : app_(app), platform_(platform), options_(options), state_(platform),
        mapping_(app.process_count(), app.channel_count()) {
    for (const ProcessId pid : app_.process_ids()) {
      if (!app_.process(pid).is_fixture()) order_.push_back(pid);
    }
    // Suffix lower bounds on processing energy of unplaced processes.
    suffix_min_energy_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      double cheapest = std::numeric_limits<double>::infinity();
      for (const auto& im : app_.process(order_[i]).implementations) {
        cheapest = std::min(cheapest, im.energy_nj_per_symbol);
      }
      suffix_min_energy_[i] = suffix_min_energy_[i + 1] + cheapest;
    }
  }

  ExhaustiveResult run() {
    // Pre-assign fixtures.
    for (const ProcessId pid : app_.process_ids()) {
      const kpn::Process& p = app_.process(pid);
      if (!p.is_fixture()) continue;
      const TileId tile = platform_.tile_by_name(*p.pinned_tile);
      const std::string& type_name =
          platform_.tile_type(platform_.tile(tile).type).name;
      for (std::size_t ii = 0; ii < p.implementations.size(); ++ii) {
        if (p.implementations[ii].tile_type != type_name) continue;
        const ImplementationId impl{
            static_cast<ImplementationId::value_type>(ii)};
        const double util = core::claimed_utilization(core::impl_utilization(
            app_, pid, impl, platform_.tile_clock_hz(tile)));
        state_.reserve_tile(tile, util, p.implementations[ii].memory_bytes);
        mapping_.assign(pid, impl, tile);
        break;
      }
      require(mapping_.is_assigned(pid), [&] {
        return "exhaustive: fixture '" + p.name +
               "' has no implementation for its pinned tile";
      });
    }
    descend(0, 0.0);
    result_.nodes = nodes_;
    result_.leaves = leaves_;
    return std::move(result_);
  }

 private:
  /// @p partial = processing energy of placed processes + comm energy of
  /// channels with both endpoints placed (a lower bound: unplaced channels
  /// can only add cost).
  void descend(std::size_t depth, double partial) {
    if (++nodes_ > options_.node_limit) {
      result_.exhausted_budget = true;
      return;
    }
    if (partial + suffix_min_energy_[depth] >=
        result_.energy_nj_per_symbol - 1e-12 && result_.success) {
      return;  // bound
    }
    if (depth == order_.size()) {
      evaluate_leaf(partial);
      return;
    }

    const ProcessId pid = order_[depth];
    const kpn::Process& p = app_.process(pid);
    for (std::size_t ii = 0; ii < p.implementations.size(); ++ii) {
      const ImplementationId impl{
          static_cast<ImplementationId::value_type>(ii)};
      const kpn::Implementation& im = p.implementations[ii];

      TileTypeId type;
      try {
        type = platform_.type_by_name(im.tile_type);
      } catch (const Error&) {
        continue;
      }
      const double util = core::impl_utilization(
          app_, pid, impl, platform_.tile_type(type).clock_hz);
      if (util > 1.0) continue;  // can never pass verification

      for (const TileId tile : platform_.tiles_of_type(type)) {
        if (!state_.tile_fits(tile, util, im.memory_bytes)) continue;
        state_.reserve_tile(tile, util, im.memory_bytes);
        mapping_.assign(pid, impl, tile);

        double delta = im.energy_nj_per_symbol;
        for (const ChannelId cid : app_.in_channels(pid)) {
          const kpn::Channel& c = app_.channel(cid);
          if (mapping_.is_assigned(c.src)) {
            delta += options_.energy.comm_nj(
                c.tokens_per_symbol,
                platform_.manhattan(mapping_.tile_of(c.src), tile));
          }
        }
        for (const ChannelId cid : app_.out_channels(pid)) {
          const kpn::Channel& c = app_.channel(cid);
          if (mapping_.is_assigned(c.dst)) {
            delta += options_.energy.comm_nj(
                c.tokens_per_symbol,
                platform_.manhattan(tile, mapping_.tile_of(c.dst)));
          }
        }

        descend(depth + 1, partial + delta);

        mapping_.unassign(pid);
        state_.release_tile(tile, util, im.memory_bytes);
        if (result_.exhausted_budget) return;
      }
    }
  }

  void evaluate_leaf(double partial_estimate) {
    ++leaves_;
    (void)partial_estimate;
    // Route on a copy of the state so link reservations do not leak
    // between branches.
    ResourceState routed_state = state_;
    Mapping candidate = mapping_;
    const core::FeedbackSet no_feedback;
    core::MappingTrace::Round scratch;
    core::MappingContext ctx{app_,           platform_, routed_state,
                             no_feedback,    options_.energy,
                             candidate,      scratch,
                             options_.engine.get()};
    const core::Step3Outcome s3 = core::run_step3(ctx);
    if (!s3.success) return;

    const double energy = core::total_energy_nj_per_symbol(
        app_, platform_, candidate, options_.energy);
    if (result_.success && energy >= result_.energy_nj_per_symbol) return;

    if (options_.verify_step4) {
      const core::FeasibilityReport report =
          core::run_step4(ctx, options_.step4);
      if (!report.feasible) return;
    }

    result_.success = true;
    result_.energy_nj_per_symbol = energy;
    result_.mapping = candidate;
  }

  const kpn::Application& app_;
  const arch::Platform& platform_;
  const ExhaustiveOptions& options_;

  ResourceState state_;
  Mapping mapping_;
  std::vector<ProcessId> order_;
  std::vector<double> suffix_min_energy_;

  ExhaustiveResult result_{.success = false,
                           .exhausted_budget = false,
                           .mapping = Mapping{0, 0},
                           .energy_nj_per_symbol =
                               std::numeric_limits<double>::infinity(),
                           .nodes = 0,
                           .leaves = 0};
  std::uint64_t nodes_ = 0;
  std::uint64_t leaves_ = 0;
};

}  // namespace

ExhaustiveResult exhaustive_map(const kpn::Application& app,
                                const arch::Platform& platform,
                                const ExhaustiveOptions& options) {
  app.validate();
  Search search(app, platform, options);
  ExhaustiveResult result = search.run();
  if (!result.success) {
    result.energy_nj_per_symbol = 0.0;
  }
  return result;
}

std::string ExhaustiveMapper::describe() const {
  return "branch-and-bound enumeration of all adequate, capacity-respecting "
         "configurations; provably energy-optimal on small instances";
}

core::MappingResult ExhaustiveMapper::map(
    const kpn::Application& app, const core::ResourceState& base) const {
  ExhaustiveResult enumerated = exhaustive_map(app, base.platform(), options_);
  return detail::screen_design_time_plan(
      base, app, enumerated.success, std::move(enumerated.mapping),
      enumerated.energy_nj_per_symbol,
      enumerated.exhausted_budget
          ? "node limit exhausted before an adherent mapping"
          : "no adherent, routable mapping exists");
}

}  // namespace rtsm::baselines
