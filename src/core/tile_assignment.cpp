#include "core/tile_assignment.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace rtsm::core {

namespace {

/// A candidate reassignment: either a move of one process to a free-capacity
/// tile of the same type, or a swap of two processes across same-type tiles.
struct Candidate {
  ProcessId a;          // moved / first swapped process
  ProcessId b;          // swap partner (invalid for moves)
  TileId target;        // move target (invalid for swaps)
  double cost_after = 0.0;
  std::string describe(const kpn::Application& app,
                       const arch::Platform& platform) const {
    if (b.valid()) {
      return "swap " + app.process(a).name + " <-> " + app.process(b).name;
    }
    return "move " + app.process(a).name + " -> " + platform.tile(target).name;
  }
};

/// Per-process booked load, needed to transfer reservations between tiles.
struct Load {
  double util = 0.0;
  std::uint64_t mem = 0;
};

std::pair<ProcessId, ProcessId> ordered_pair(ProcessId x, ProcessId y) {
  return x < y ? std::pair{x, y} : std::pair{y, x};
}

Load load_of(const kpn::Application& app, const arch::Platform& platform,
             const Mapping& mapping, ProcessId pid) {
  const ImplementationId impl = mapping.impl_of(pid);
  const TileId tile = mapping.tile_of(pid);
  return {claimed_utilization(
              impl_utilization(app, pid, impl, platform.tile_clock_hz(tile))),
          app.implementation(pid, impl).memory_bytes};
}

class Search {
 public:
  Search(MappingContext& ctx, const Step2Options& options)
      : app_(ctx.app), platform_(ctx.platform), state_(ctx.state),
        feedback_(ctx.feedback), options_(options), energy_(ctx.energy),
        mapping_(ctx.mapping), trace_(ctx.trace.step2) {
    load_.resize(app_.process_count());
    for (const ProcessId pid : app_.process_ids()) {
      if (app_.process(pid).is_fixture()) continue;
      movable_.push_back(pid);
      load_[pid.value()] = load_of(app_, platform_, mapping_, pid);
    }
    for (const ChannelId cid : app_.channel_ids()) {
      channels_.push_back(&app_.channel(cid));
    }
    refresh_channel_costs();
  }

  void run() {
    trace_.initial_cost = cost();
    trace_.initial_assignment = assignment_snapshot();
    switch (options_.strategy) {
      case Step2Strategy::BestImprovement:
        run_best_improvement();
        break;
      case Step2Strategy::SequentialSweep:
        run_sequential_sweep();
        break;
    }
    trace_.final_cost = cost();
  }

 private:
  /// placement_cost() of the current mapping: the cached per-channel
  /// costs added up in channel order, as placement_cost() adds them.
  double cost() const {
    double c = 0.0;
    for (const double channel : channel_cost_) c += channel;
    return c;
  }

  double channel_cost_between(const kpn::Channel& ch, TileId src,
                              TileId dst) const {
    return channel_cost(ch, platform_.manhattan(src, dst),
                        options_.cost_model, energy_);
  }

  void refresh_channel_costs() {
    channel_cost_.clear();
    for (const kpn::Channel* ch : channels_) {
      channel_cost_.push_back(channel_cost_between(
          *ch, mapping_.tile_of(ch->src), mapping_.tile_of(ch->dst)));
    }
  }

  /// placement_cost() with @p a on @p a_tile and @p b (invalid for a move)
  /// on @p b_tile: the same sum in the same order, recomputing only the
  /// channels incident to a moved process, so the result is bit-identical.
  double cost_if(ProcessId a, TileId a_tile, ProcessId b,
                 TileId b_tile) const {
    auto tile = [&](ProcessId p) {
      return p == a ? a_tile : p == b ? b_tile : mapping_.tile_of(p);
    };
    double c = 0.0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const kpn::Channel& ch = *channels_[i];
      if (ch.src == a || ch.dst == a || ch.src == b || ch.dst == b) {
        c += channel_cost_between(ch, tile(ch.src), tile(ch.dst));
      } else {
        c += channel_cost_[i];
      }
    }
    return c;
  }

  std::vector<std::string> assignment_snapshot() const {
    std::vector<std::string> snap;
    snap.reserve(app_.process_count());
    for (const ProcessId pid : app_.process_ids()) {
      snap.push_back(mapping_.is_assigned(pid)
                         ? platform_.tile(mapping_.tile_of(pid)).name
                         : "-");
    }
    return snap;
  }

  bool move_fits(ProcessId pid, TileId target) const {
    const Load& l = load_[pid.value()];
    return state_.tile_fits(target, l.util, l.mem);
  }

  /// Checks a swap is capacity-feasible by tentatively releasing both sides.
  bool swap_fits(ProcessId a, ProcessId b) {
    const TileId ta = mapping_.tile_of(a);
    const TileId tb = mapping_.tile_of(b);
    const Load la = load_[a.value()];
    const Load lb = load_[b.value()];
    state_.release_tile(ta, la.util, la.mem);
    state_.release_tile(tb, lb.util, lb.mem);
    const bool ok = state_.tile_fits(tb, la.util, la.mem) &&
                    state_.tile_fits(ta, lb.util, lb.mem);
    state_.reserve_tile(ta, la.util, la.mem);
    state_.reserve_tile(tb, lb.util, lb.mem);
    return ok;
  }

  void apply(const Candidate& cand) {
    if (cand.b.valid()) {
      const TileId ta = mapping_.tile_of(cand.a);
      const TileId tb = mapping_.tile_of(cand.b);
      const Load la = load_[cand.a.value()];
      const Load lb = load_[cand.b.value()];
      state_.release_tile(ta, la.util, la.mem);
      state_.release_tile(tb, lb.util, lb.mem);
      state_.reserve_tile(tb, la.util, la.mem);
      state_.reserve_tile(ta, lb.util, lb.mem);
      mapping_.move(cand.a, tb);
      mapping_.move(cand.b, ta);
      load_[cand.b.value()] = load_of(app_, platform_, mapping_, cand.b);
    } else {
      const TileId ta = mapping_.tile_of(cand.a);
      const Load la = load_[cand.a.value()];
      state_.release_tile(ta, la.util, la.mem);
      state_.reserve_tile(cand.target, la.util, la.mem);
      mapping_.move(cand.a, cand.target);
    }
    load_[cand.a.value()] = load_of(app_, platform_, mapping_, cand.a);
    refresh_channel_costs();
  }

  /// All admissible candidates for @p pid; swaps with partners in
  /// @p skip_pairs are omitted (sweep-level deduplication).
  std::vector<Candidate> candidates_for(
      ProcessId pid,
      const std::set<std::pair<ProcessId, ProcessId>>& skip_pairs) {
    std::vector<Candidate> result;
    const TileId current = mapping_.tile_of(pid);
    const TileTypeId type = platform_.tile(current).type;

    for (const TileId tile : platform_.tiles_of_type(type)) {
      if (tile == current) continue;
      if (feedback_.tile_forbidden(pid, tile)) continue;
      if (!move_fits(pid, tile)) continue;
      result.push_back(Candidate{pid, ProcessId{}, tile,
                                 cost_if(pid, tile, ProcessId{}, TileId{})});
    }
    for (const ProcessId other : movable_) {
      if (other == pid) continue;
      const TileId other_tile = mapping_.tile_of(other);
      if (other_tile == current) continue;
      if (platform_.tile(other_tile).type != type) continue;
      if (skip_pairs.contains(ordered_pair(pid, other))) continue;
      if (feedback_.tile_forbidden(pid, other_tile) ||
          feedback_.tile_forbidden(other, current)) {
        continue;
      }
      if (!swap_fits(pid, other)) continue;
      result.push_back(Candidate{pid, other, TileId{},
                                 cost_if(pid, other_tile, other, current)});
    }
    return result;
  }

  /// Records an iteration row. The paper's Table 2 shows the *attempted*
  /// placement even for reverted candidates, so for reverts the candidate is
  /// applied to the mapping (positions only) just long enough to snapshot.
  void record(std::uint32_t iteration, const Candidate& cand,
              double cost_before, bool kept) {
    std::vector<std::string> snapshot;
    if (kept) {
      snapshot = assignment_snapshot();
    } else {
      const TileId ta = mapping_.tile_of(cand.a);
      if (cand.b.valid()) {
        const TileId tb = mapping_.tile_of(cand.b);
        mapping_.move(cand.a, tb);
        mapping_.move(cand.b, ta);
        snapshot = assignment_snapshot();
        mapping_.move(cand.a, ta);
        mapping_.move(cand.b, tb);
      } else {
        mapping_.move(cand.a, cand.target);
        snapshot = assignment_snapshot();
        mapping_.move(cand.a, ta);
      }
    }
    trace_.records.push_back(Step2Record{
        iteration, cand.describe(app_, platform_), cost_before,
        cand.cost_after, kept, std::move(snapshot)});
  }

  void run_best_improvement() {
    std::uint32_t iteration = 0;
    while (iteration < options_.max_iterations) {
      const double before = cost();
      std::optional<Candidate> best;
      std::set<std::pair<ProcessId, ProcessId>> seen_pairs;
      for (const ProcessId pid : movable_) {
        for (Candidate& cand : candidates_for(pid, seen_pairs)) {
          if (cand.b.valid()) seen_pairs.insert(ordered_pair(cand.a, cand.b));
          if (!best || cand.cost_after < best->cost_after) best = cand;
        }
      }
      if (!best) return;
      ++iteration;
      if (best->cost_after < before - options_.min_gain) {
        apply(*best);
        record(iteration, *best, before, true);
      } else {
        record(iteration, *best, before, false);
        return;
      }
    }
  }

  void run_sequential_sweep() {
    std::uint32_t iteration = 0;
    bool improved_in_sweep = true;
    while (improved_in_sweep && iteration < options_.max_iterations) {
      improved_in_sweep = false;
      std::set<std::pair<ProcessId, ProcessId>> evaluated_pairs;
      for (const ProcessId pid : movable_) {
        if (iteration >= options_.max_iterations) break;
        auto cands = candidates_for(pid, evaluated_pairs);
        for (const Candidate& cand : cands) {
          if (cand.b.valid()) {
            evaluated_pairs.insert(ordered_pair(cand.a, cand.b));
          }
        }
        if (cands.empty()) continue;
        const auto best = std::min_element(
            cands.begin(), cands.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.cost_after < y.cost_after;
            });
        const double before = cost();
        ++iteration;
        if (best->cost_after < before - options_.min_gain) {
          apply(*best);
          record(iteration, *best, before, true);
          improved_in_sweep = true;
        } else {
          record(iteration, *best, before, false);
        }
      }
    }
  }

  const kpn::Application& app_;
  const arch::Platform& platform_;
  ResourceState& state_;
  const FeedbackSet& feedback_;
  const Step2Options& options_;
  const energy::EnergyModel& energy_;
  Mapping& mapping_;
  Step2Trace& trace_;
  std::vector<ProcessId> movable_;
  /// Booked load of each movable process on its current tile (indexed by
  /// process id); refreshed for the processes a kept candidate moves.
  std::vector<Load> load_;
  /// The application's channels in channel order.
  std::vector<const kpn::Channel*> channels_;
  /// channel_cost() of each channel under the current mapping.
  std::vector<double> channel_cost_;
};

}  // namespace

void run_step2(MappingContext& ctx, const Step2Options& options) {
  require(ctx.mapping.all_assigned(),
          "step 2 requires a complete step-1 mapping");
  Search search(ctx, options);
  search.run();
}

}  // namespace rtsm::core
