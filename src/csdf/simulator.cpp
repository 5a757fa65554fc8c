#include "csdf/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace rtsm::csdf {

namespace {

constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

/// Flat structure-of-arrays image of the graph. The hot loop of the
/// simulator touches only these dense integer arrays: Edge/Actor structs
/// carry strings and optionals that spread the per-event working set over
/// many cache lines, and Graph accessors bounds-check every call.
struct FlatGraph {
  std::size_t num_actors = 0;
  std::size_t num_edges = 0;

  // Actors.
  std::vector<std::uint32_t> phase_count;
  std::vector<std::size_t> wcet_off;
  std::vector<std::uint64_t> wcet_ps;

  // Edges: endpoints, capacity (kUnbounded = no bound) and per-phase rates
  // (production indexed by the source actor's phase, consumption by the
  // destination actor's phase).
  std::vector<std::uint32_t> src, dst;
  std::vector<std::uint64_t> capacity;
  std::vector<std::size_t> prod_off;
  std::vector<std::uint32_t> prod;
  std::vector<std::size_t> cons_off;
  std::vector<std::uint32_t> cons;

  // CSR adjacency: edge indices per actor.
  std::vector<std::size_t> in_off;
  std::vector<std::uint32_t> in_edge;
  std::vector<std::size_t> out_off;
  std::vector<std::uint32_t> out_edge;

  explicit FlatGraph(const Graph& g)
      : num_actors(g.actor_count()), num_edges(g.edge_count()) {
    auto actor_of = [&](std::size_t a) -> const Actor& {
      return g.actor(ActorId{static_cast<ActorId::value_type>(a)});
    };
    phase_count.resize(num_actors);
    wcet_off.resize(num_actors + 1, 0);
    for (std::size_t a = 0; a < num_actors; ++a) {
      const Actor& actor = actor_of(a);
      phase_count[a] = static_cast<std::uint32_t>(actor.phase_count());
      wcet_off[a + 1] = wcet_off[a] + actor.phase_count();
    }
    wcet_ps.reserve(wcet_off[num_actors]);
    for (std::size_t a = 0; a < num_actors; ++a) {
      const Actor& actor = actor_of(a);
      wcet_ps.insert(wcet_ps.end(), actor.wcet_ps.begin(), actor.wcet_ps.end());
    }

    src.resize(num_edges);
    dst.resize(num_edges);
    capacity.resize(num_edges);
    prod_off.resize(num_edges + 1, 0);
    cons_off.resize(num_edges + 1, 0);
    in_off.assign(num_actors + 1, 0);
    out_off.assign(num_actors + 1, 0);
    for (std::size_t e = 0; e < num_edges; ++e) {
      const Edge& edge = g.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      src[e] = edge.src.value();
      dst[e] = edge.dst.value();
      capacity[e] = edge.capacity ? *edge.capacity : kUnbounded;
      prod_off[e + 1] = prod_off[e] + edge.production.size();
      cons_off[e + 1] = cons_off[e] + edge.consumption.size();
      ++out_off[edge.src.value() + 1];
      ++in_off[edge.dst.value() + 1];
    }
    prod.reserve(prod_off[num_edges]);
    cons.reserve(cons_off[num_edges]);
    for (std::size_t e = 0; e < num_edges; ++e) {
      const Edge& edge = g.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      prod.insert(prod.end(), edge.production.begin(), edge.production.end());
      cons.insert(cons.end(), edge.consumption.begin(), edge.consumption.end());
    }
    for (std::size_t a = 0; a < num_actors; ++a) {
      in_off[a + 1] += in_off[a];
      out_off[a + 1] += out_off[a];
    }
    in_edge.resize(num_edges);
    out_edge.resize(num_edges);
    std::vector<std::size_t> in_fill(in_off.begin(), in_off.end() - 1);
    std::vector<std::size_t> out_fill(out_off.begin(), out_off.end() - 1);
    for (std::size_t e = 0; e < num_edges; ++e) {
      in_edge[in_fill[dst[e]]++] = static_cast<std::uint32_t>(e);
      out_edge[out_fill[src[e]]++] = static_cast<std::uint32_t>(e);
    }
  }
};

/// Indexed ready-set: a stack of candidate actors with O(1) membership
/// dedup, so each event only (re)examines the actors its tokens or freed
/// space could actually have enabled.
class ReadySet {
 public:
  explicit ReadySet(std::size_t n) : queued_(n, 0) { stack_.reserve(n); }

  void push(std::uint32_t a) {
    if (!queued_[a]) {
      queued_[a] = 1;
      stack_.push_back(a);
    }
  }

  [[nodiscard]] bool empty() const { return stack_.empty(); }

  std::uint32_t pop() {
    const std::uint32_t a = stack_.back();
    stack_.pop_back();
    queued_[a] = 0;
    return a;
  }

 private:
  std::vector<std::uint32_t> stack_;
  std::vector<char> queued_;
};

struct Firing {
  std::uint64_t end_ps;
  std::uint32_t actor;
  // Deterministic ordering: earliest end first, then lowest actor id.
  bool operator>(const Firing& rhs) const {
    if (end_ps != rhs.end_ps) return end_ps > rhs.end_ps;
    return actor > rhs.actor;
  }
};

/// Self-timed state at one reference-iteration completion, with where the
/// run stood then. `state` is canonical, so two snapshots from which the
/// rest of the run unfolds identically (up to a shift in time) compare
/// equal: per actor its phase, its cycle counter modulo the repetition
/// vector and the remaining time of its firing in flight (+1; 0 = idle),
/// then per edge its tokens and reservations.
struct Snapshot {
  std::vector<std::uint64_t> state;
  std::uint64_t iter = 0;
  std::uint64_t now = 0;
  std::uint64_t events = 0;
  /// Latency-probe records logged so far.
  std::uint64_t src_logged = 0;
  std::uint64_t sink_logged = 0;
  /// Absolute cycle counters.
  std::vector<std::uint64_t> cycles;
};

/// Fills records[to, to + periods * (to - from)) from the one period of
/// records logged in [from, to), each period @p span later than the one
/// before; records beyond the array were never stored and stay so.
void replicate(std::vector<std::uint64_t>& records, std::uint64_t from,
               std::uint64_t to, std::uint64_t periods, std::uint64_t span) {
  const std::uint64_t per_period = to - from;
  const std::uint64_t end =
      std::min<std::uint64_t>(to + periods * per_period, records.size());
  for (std::uint64_t i = to; i < end; ++i) {
    records[i] = records[i - per_period] + span;
  }
}

}  // namespace

SimulationResult simulate(const Graph& graph, const RepetitionVector& rv,
                          ActorId reference, const SimulationConfig& config,
                          std::optional<LatencyProbe> probe) {
  require(rv.cycles.size() == graph.actor_count(),
          "simulate: repetition vector does not match graph");
  require(reference.valid() && reference.value() < graph.actor_count(),
          "simulate: invalid reference actor");
  require(config.measured_iterations > 0,
          "simulate: need at least one measured iteration");

  const FlatGraph fg(graph);
  const std::size_t num_actors = fg.num_actors;
  const std::size_t num_edges = fg.num_edges;
  const std::uint32_t ref = reference.value();

  std::vector<std::uint32_t> phase(num_actors, 0);
  std::vector<char> busy(num_actors, 0);
  std::vector<std::uint64_t> cycles_done(num_actors, 0);
  std::vector<std::uint64_t> tokens(num_edges);
  std::vector<std::uint64_t> reserved(num_edges, 0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    tokens[e] = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)})
                    .initial_tokens;
  }

  const std::uint64_t ref_cycles_per_iter = rv.cycles[ref];
  const std::uint32_t w = config.warmup_iterations;
  const std::uint32_t m = config.measured_iterations;
  const std::uint64_t total_iters = static_cast<std::uint64_t>(w) + m;

  // Completion time of each reference iteration (index 0 .. total_iters-1).
  std::vector<std::uint64_t> ref_iter_end(total_iters, 0);
  // Latency probe bookkeeping.
  std::vector<std::uint64_t> src_iter_start;
  std::vector<std::uint64_t> sink_iter_end;
  std::uint64_t src_cycles_per_iter = 0;
  std::uint64_t sink_cycles_per_iter = 0;
  if (probe) {
    src_cycles_per_iter = rv.cycles[probe->source.value()];
    sink_cycles_per_iter = rv.cycles[probe->sink.value()];
    src_iter_start.assign(total_iters + 2, 0);
    sink_iter_end.assign(total_iters + 2, 0);
  }

  // Min-heap on (end time, actor) kept in a plain vector, so a
  // fast-forward can shift every firing in flight in place.
  std::vector<Firing> in_flight;

  SimulationResult result;
  result.measured_iterations_used = 0;
  std::uint64_t now = 0;
  // Latency-probe records logged so far (next iteration index of each).
  std::uint64_t src_logged = 0;
  std::uint64_t sink_logged = 0;

  auto can_start = [&](std::uint32_t a) -> bool {
    if (busy[a]) return false;
    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
      const std::uint32_t e = fg.in_edge[i];
      if (tokens[e] < fg.cons[fg.cons_off[e] + k]) return false;
    }
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t e = fg.out_edge[i];
      if (fg.capacity[e] == kUnbounded) continue;
      const std::uint64_t used = tokens[e] + reserved[e];
      if (used + fg.prod[fg.prod_off[e] + k] > fg.capacity[e]) return false;
    }
    return true;
  };

  auto start_firing = [&](std::uint32_t a) {
    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
      const std::uint32_t e = fg.in_edge[i];
      tokens[e] -= fg.cons[fg.cons_off[e] + k];
    }
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t e = fg.out_edge[i];
      reserved[e] += fg.prod[fg.prod_off[e] + k];
    }
    if (probe && a == probe->source.value() && k == 0 &&
        cycles_done[a] % src_cycles_per_iter == 0) {
      const std::uint64_t iter = cycles_done[a] / src_cycles_per_iter;
      if (iter < src_iter_start.size()) src_iter_start[iter] = now;
      src_logged = iter + 1;
    }
    busy[a] = 1;
    in_flight.push_back(Firing{now + fg.wcet_ps[fg.wcet_off[a] + k], a});
    std::push_heap(in_flight.begin(), in_flight.end(), std::greater<>{});
  };

  // Worklist-driven enabling. Only two events can enable an actor:
  // tokens arriving on an input edge (a producer completed) and space
  // appearing on an output edge (its consumer started and removed tokens).
  // Starting an actor therefore propagates to the producers of its input
  // edges; completing one propagates to the consumers of its output edges.
  ReadySet ready(num_actors);
  auto drain_ready = [&] {
    while (!ready.empty()) {
      const std::uint32_t a = ready.pop();
      if (!can_start(a)) continue;
      start_firing(a);
      // Consumption freed space: producers into this actor may now fit.
      for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
        const std::uint32_t producer = fg.src[fg.in_edge[i]];
        if (!busy[producer]) ready.push(producer);
      }
    }
  };

  auto describe_block = [&]() -> std::string {
    std::string info = "deadlock; blocked actors:";
    for (std::size_t a = 0; a < num_actors; ++a) {
      if (busy[a]) continue;
      const ActorId aid{static_cast<ActorId::value_type>(a)};
      const std::uint32_t k = phase[a];
      for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
        const std::uint32_t e = fg.in_edge[i];
        if (tokens[e] < fg.cons[fg.cons_off[e] + k]) {
          const Edge& edge = graph.edge(EdgeId{e});
          info += " " + graph.actor(aid).name + "(needs " +
                  std::to_string(edge.consumption[k]) + " on '" + edge.name +
                  "')";
          break;
        }
      }
      for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
        const std::uint32_t e = fg.out_edge[i];
        if (fg.capacity[e] == kUnbounded) continue;
        if (tokens[e] + reserved[e] + fg.prod[fg.prod_off[e] + k] >
            fg.capacity[e]) {
          const Edge& edge = graph.edge(EdgeId{e});
          info += " " + graph.actor(aid).name + "(no space on '" + edge.name +
                  "')";
          break;
        }
      }
    }
    return info;
  };

  // Running period estimate after m_done measured iterations. With
  // warmup == 0 the window starts at iteration 0, whose "previous
  // completion" is time 0.
  auto estimate = [&](std::uint32_t m_done) -> std::uint64_t {
    const std::uint64_t t_begin =
        w == 0 ? ref_iter_end[0] : ref_iter_end[w - 1];
    const std::uint64_t t_end = ref_iter_end[w + m_done - 1];
    const std::uint32_t spans = w == 0 ? m_done - 1 : m_done;
    return spans == 0 ? t_begin : (t_end - t_begin + spans - 1) / spans;
  };

  // Periodic fast-forward. Self-timed execution is deterministic, so once
  // the state at a reference-iteration completion recurs, everything
  // between the two occurrences repeats forever, shifted in time: the
  // periodic regime of Ghamarian et al. (ACSD 2006). A snapshot is taken at
  // each completion, before the completion logs its own records. On the
  // first recurrence whole periods are skipped: time, the firings in
  // flight, the cycle counters and the event count advance, and the
  // iteration records the skipped periods would have logged are copied
  // from the period just simulated. The skip stops short of the final
  // reference iteration and of the event limit, so the run ends firing by
  // firing with the same result as without the skip. The adaptive window
  // judges every iteration's own span, so it never skips.
  bool record_snapshots = !config.adaptive();
  std::vector<Snapshot> snapshots;
  auto take_snapshot = [&](std::uint64_t iter) {
    Snapshot snap;
    snap.state.reserve(3 * num_actors + 2 * num_edges);
    for (std::size_t a = 0; a < num_actors; ++a) {
      snap.state.push_back(phase[a]);
      snap.state.push_back(cycles_done[a] % rv.cycles[a]);
      snap.state.push_back(0);
    }
    for (const Firing& f : in_flight) {
      snap.state[3 * std::size_t{f.actor} + 2] = f.end_ps - now + 1;
    }
    for (std::size_t e = 0; e < num_edges; ++e) {
      snap.state.push_back(tokens[e]);
      snap.state.push_back(reserved[e]);
    }
    snap.iter = iter;
    snap.now = now;
    snap.events = result.events;
    snap.src_logged = src_logged;
    snap.sink_logged = sink_logged;
    snap.cycles = cycles_done;
    return snap;
  };
  // Called at the completion of reference iteration @p iter. Returns the
  // (possibly advanced) iteration the run now stands at.
  auto fast_forward = [&](std::uint64_t iter) -> std::uint64_t {
    Snapshot snap = take_snapshot(iter);
    const auto prev =
        std::find_if(snapshots.begin(), snapshots.end(),
                     [&](const Snapshot& s) { return s.state == snap.state; });
    if (prev == snapshots.end()) {
      snapshots.push_back(std::move(snap));
      return iter;
    }
    const std::uint64_t iters = iter - prev->iter;
    const std::uint64_t span = now - prev->now;
    const std::uint64_t events = result.events - prev->events;
    // Land at most on the second-to-last iteration and below the limit.
    std::uint64_t periods = 0;
    if (iter + 2 <= total_iters && result.events < config.max_events) {
      periods = std::min((total_iters - 2 - iter) / iters,
                         (config.max_events - 1 - result.events) / events);
    }
    if (periods > 0) {
      replicate(ref_iter_end, prev->iter, iter, periods, span);
      if (probe) {
        replicate(src_iter_start, prev->src_logged, src_logged, periods, span);
        replicate(sink_iter_end, prev->sink_logged, sink_logged, periods,
                  span);
      }
      for (std::size_t a = 0; a < num_actors; ++a) {
        cycles_done[a] += periods * (cycles_done[a] - prev->cycles[a]);
      }
      for (Firing& f : in_flight) f.end_ps += periods * span;
      now += periods * span;
      result.events += periods * events;
      result.events_skipped += periods * events;
      iter += periods * iters;
    }
    record_snapshots = false;
    std::vector<Snapshot>().swap(snapshots);
    return iter;
  };

  for (std::size_t a = 0; a < num_actors; ++a) {
    ready.push(static_cast<std::uint32_t>(a));
  }
  drain_ready();

  std::uint32_t convergence_streak = 0;
  while (true) {
    if (in_flight.empty()) {
      result.status = SimulationStatus::Deadlock;
      result.message = describe_block();
      result.end_time_ps = now;
      return result;
    }
    std::pop_heap(in_flight.begin(), in_flight.end(), std::greater<>{});
    const Firing f = in_flight.back();
    in_flight.pop_back();
    now = f.end_ps;
    ++result.events;

    const std::uint32_t a = f.actor;
    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t e = fg.out_edge[i];
      const std::uint32_t produced = fg.prod[fg.prod_off[e] + k];
      reserved[e] -= produced;
      tokens[e] += produced;
    }
    busy[a] = 0;
    phase[a] = (k + 1 == fg.phase_count[a]) ? 0 : k + 1;
    if (phase[a] == 0) {
      ++cycles_done[a];
      if (a == ref && cycles_done[a] % ref_cycles_per_iter == 0) {
        std::uint64_t iter = cycles_done[a] / ref_cycles_per_iter - 1;
        if (record_snapshots) iter = fast_forward(iter);
        if (iter < total_iters) ref_iter_end[iter] = now;
        if (iter + 1 > w) {
          const auto m_done = static_cast<std::uint32_t>(iter + 1 - w);
          result.measured_iterations_used = m_done;
          if (m_done >= m) break;  // full window executed
          if (config.adaptive() && m_done >= 2) {
            // Converged when each new iteration's OWN span stays within
            // epsilon of the running average. Comparing successive
            // cumulative means instead would always shrink as 1/n and
            // declare any run "converged" after enough iterations, even
            // while the period is still oscillating.
            const std::uint64_t span = ref_iter_end[w + m_done - 1] -
                                       ref_iter_end[w + m_done - 2];
            const std::uint64_t cur = estimate(m_done);
            const std::uint64_t diff = span > cur ? span - cur : cur - span;
            const double bound = config.convergence_epsilon *
                                 static_cast<double>(std::max<std::uint64_t>(
                                     cur, 1));
            if (static_cast<double>(diff) <= bound) {
              ++convergence_streak;
            } else {
              convergence_streak = 0;
            }
            if (convergence_streak >= config.convergence_window) {
              result.converged_early = true;
              break;
            }
          }
        }
      }
      if (probe && a == probe->sink.value() &&
          cycles_done[a] % sink_cycles_per_iter == 0) {
        const std::uint64_t iter = cycles_done[a] / sink_cycles_per_iter - 1;
        if (iter < sink_iter_end.size()) sink_iter_end[iter] = now;
        sink_logged = iter + 1;
      }
    }

    if (result.events >= config.max_events) {
      result.status = SimulationStatus::EventLimit;
      result.message = "event limit reached at t=" + std::to_string(now) + "ps";
      result.end_time_ps = now;
      return result;
    }

    // The completion can enable the actor itself and the consumers of the
    // tokens it just delivered; everything else is unaffected.
    ready.push(a);
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t consumer = fg.dst[fg.out_edge[i]];
      if (!busy[consumer]) ready.push(consumer);
    }
    drain_ready();
  }

  result.status = SimulationStatus::Completed;
  result.end_time_ps = now;

  const std::uint32_t m_used = result.measured_iterations_used;
  result.period_ps = estimate(m_used);

  std::uint64_t max_span = 0;
  for (std::uint32_t i = (w == 0 ? 1 : w); i < w + m_used; ++i) {
    max_span = std::max(max_span, ref_iter_end[i] - ref_iter_end[i - 1]);
  }
  result.max_period_ps = max_span;

  if (probe) {
    std::uint64_t worst = 0;
    for (std::uint32_t i = w; i < w + m_used; ++i) {
      if (sink_iter_end[i] == 0) continue;  // sink lagging behind reference
      if (sink_iter_end[i] > src_iter_start[i]) {
        worst = std::max(worst, sink_iter_end[i] - src_iter_start[i]);
      }
    }
    result.latency_ps = worst;
  }
  return result;
}

}  // namespace rtsm::csdf
