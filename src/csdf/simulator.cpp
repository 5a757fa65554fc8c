#include "csdf/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace rtsm::csdf {

namespace {

constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoDelay = std::numeric_limits<std::uint32_t>::max();

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

  // Edges: endpoints, capacity (kUnbounded = no bound) and the per-phase
  // rate tables of all edges back to back (production indexed by the source
  // actor's phase, consumption by the destination actor's phase).
  std::vector<std::uint32_t> src, dst;
  std::vector<std::uint64_t> capacity;
  // Edges with a latency: delayed[d] is the edge of delay slot d, in edge
  // order, and delay_slot[e] the slot of edge e (kNoDelay without one).
  std::vector<std::uint32_t> delayed;
  std::vector<std::uint32_t> delay_slot;
  std::vector<std::uint64_t> latency;
  std::vector<std::uint32_t> prod;
  std::vector<std::uint32_t> cons;

  // CSR adjacency: edge indices per actor, and per slot the offset of the
  // edge's rate table in prod (out-slots) or cons (in-slots).
  std::vector<std::size_t> in_off;
  std::vector<std::uint32_t> in_edge;
  std::vector<std::size_t> in_rate;
  std::vector<std::size_t> out_off;
  std::vector<std::uint32_t> out_edge;
  std::vector<std::size_t> out_rate;

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
    delay_slot.assign(num_edges, kNoDelay);
    latency.resize(num_edges);
    std::vector<std::size_t> prod_off(num_edges + 1, 0);
    std::vector<std::size_t> cons_off(num_edges + 1, 0);
    in_off.assign(num_actors + 1, 0);
    out_off.assign(num_actors + 1, 0);
    for (std::size_t e = 0; e < num_edges; ++e) {
      const Edge& edge = g.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      src[e] = edge.src.value();
      dst[e] = edge.dst.value();
      capacity[e] = edge.capacity ? *edge.capacity : kUnbounded;
      latency[e] = edge.latency_ps;
      if (edge.latency_ps > 0) {
        delay_slot[e] = static_cast<std::uint32_t>(delayed.size());
        delayed.push_back(static_cast<std::uint32_t>(e));
      }
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
    in_rate.resize(num_edges);
    out_edge.resize(num_edges);
    out_rate.resize(num_edges);
    std::vector<std::size_t> in_fill(in_off.begin(), in_off.end() - 1);
    std::vector<std::size_t> out_fill(out_off.begin(), out_off.end() - 1);
    for (std::size_t e = 0; e < num_edges; ++e) {
      in_rate[in_fill[dst[e]]] = cons_off[e];
      in_edge[in_fill[dst[e]]++] = static_cast<std::uint32_t>(e);
      out_rate[out_fill[src[e]]] = prod_off[e];
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

/// Tokens one firing put in transit on a latency edge.
struct Delivery {
  std::uint64_t due = 0;
  std::uint32_t tokens = 0;
};

/// The deliveries in transit on one latency edge, in FIFO order. Its
/// producer fires sequentially and the latency is fixed, so due times
/// never decrease along the queue.
class Transit {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  [[nodiscard]] const Delivery& front() const { return items_[head_]; }
  [[nodiscard]] const Delivery& at(std::size_t i) const {
    return items_[head_ + i];
  }
  void push(std::uint64_t due, std::uint32_t tokens) {
    items_.push_back({due, tokens});
  }
  void pop() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }
  /// Moves every delivery @p delta later.
  void shift(std::uint64_t delta) {
    for (std::size_t i = head_; i < items_.size(); ++i) {
      items_[i].due += delta;
    }
  }

 private:
  std::vector<Delivery> items_;
  std::size_t head_ = 0;
};

/// Winner (tournament) tree over the pending events. Leaf a < #actors
/// holds the end time of actor a's firing in flight (kUnbounded = idle);
/// leaf #actors + d holds the due time of the next delivery on the edge of
/// delay slot d. Each inner node holds the leaf with the earliest time
/// below it. A tie goes to the left child, so the root is the earliest
/// event and, among equal times, firings come before deliveries, each in
/// actor or slot order.
class WinnerTree {
 public:
  explicit WinnerTree(std::size_t n) {
    while (leaves_ < n) leaves_ *= 2;
    end_.assign(leaves_, kUnbounded);
    node_.resize(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) {
      node_[leaves_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = leaves_ - 1; i > 0; --i) play(i);
  }

  [[nodiscard]] std::uint64_t end(std::uint32_t a) const { return end_[a]; }
  [[nodiscard]] bool busy(std::uint32_t a) const {
    return end_[a] != kUnbounded;
  }
  /// Actor of the earliest firing (its end is kUnbounded when none is in
  /// flight).
  [[nodiscard]] std::uint32_t top() const { return node_[1]; }

  /// Sets a's end time without fixing its path: the inner nodes above it
  /// go stale until fix(a).
  void set(std::uint32_t a, std::uint64_t end) { end_[a] = end; }
  /// Replays the matches on a's path up to the root.
  void fix(std::uint32_t a) {
    for (std::size_t i = (leaves_ + a) / 2; i > 0; i /= 2) play(i);
  }
  /// Moves every firing in flight @p delta later. A uniform shift keeps
  /// every match's winner, so no node changes.
  void shift(std::uint64_t delta) {
    for (std::uint64_t& t : end_) {
      if (t != kUnbounded) t += delta;
    }
  }

 private:
  void play(std::size_t i) {
    const std::uint32_t l = node_[2 * i];
    const std::uint32_t r = node_[2 * i + 1];
    node_[i] = end_[r] < end_[l] ? r : l;
  }

  std::size_t leaves_ = 1;
  std::vector<std::uint64_t> end_;
  std::vector<std::uint32_t> node_;
};

/// Self-timed state at one reference-iteration completion, with where the
/// run stood then. `state` is canonical, so two snapshots from which the
/// rest of the run unfolds identically (up to a shift in time) compare
/// equal: per actor its phase, its cycle counter modulo the repetition
/// vector and the remaining time of its firing in flight (+1; 0 = idle),
/// then per edge its tokens and reservations, then per latency edge the
/// number of deliveries in transit followed by each one's remaining time
/// and tokens.
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
  std::vector<std::uint64_t> cycles_done(num_actors, 0);
  std::vector<std::uint64_t> tokens(num_edges);
  // Space claimed on an edge by tokens not consumable yet: reserved when a
  // firing starts, released into tokens when it ends or, on a latency
  // edge, when its delivery falls due.
  std::vector<std::uint64_t> reserved(num_edges, 0);
  std::vector<Transit> transit(fg.delayed.size());
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

  // Firings in flight and next deliveries; an actor is busy while its leaf
  // holds an end time.
  WinnerTree in_flight(num_actors + fg.delayed.size());

  SimulationResult result;
  result.measured_iterations_used = 0;
  std::uint64_t now = 0;
  // Latency-probe records logged so far (next iteration index of each).
  std::uint64_t src_logged = 0;
  std::uint64_t sink_logged = 0;

  auto can_start = [&](std::uint32_t a) -> bool {
    if (in_flight.busy(a)) return false;
    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
      if (tokens[fg.in_edge[i]] < fg.cons[fg.in_rate[i] + k]) return false;
    }
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t e = fg.out_edge[i];
      if (fg.capacity[e] == kUnbounded) continue;
      const std::uint64_t used = tokens[e] + reserved[e];
      if (used + fg.prod[fg.out_rate[i] + k] > fg.capacity[e]) return false;
    }
    return true;
  };

  auto start_firing = [&](std::uint32_t a) {
    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
      tokens[fg.in_edge[i]] -= fg.cons[fg.in_rate[i] + k];
    }
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      reserved[fg.out_edge[i]] += fg.prod[fg.out_rate[i] + k];
    }
    if (probe && a == probe->source.value() && k == 0 &&
        cycles_done[a] % src_cycles_per_iter == 0) {
      const std::uint64_t iter = cycles_done[a] / src_cycles_per_iter;
      if (iter < src_iter_start.size()) src_iter_start[iter] = now;
      src_logged = iter + 1;
    }
    in_flight.set(a, now + fg.wcet_ps[fg.wcet_off[a] + k]);
    in_flight.fix(a);
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
        if (!in_flight.busy(producer)) ready.push(producer);
      }
    }
  };

  // The next delivery of delay slot @p d falls due: its tokens become
  // consumable, which can enable only the edge's consumer.
  auto deliver = [&](std::uint32_t d) {
    const auto leaf = static_cast<std::uint32_t>(num_actors + d);
    const std::uint32_t e = fg.delayed[d];
    Transit& queue = transit[d];
    const std::uint32_t delivered = queue.front().tokens;
    queue.pop();
    reserved[e] -= delivered;
    tokens[e] += delivered;
    in_flight.set(leaf, queue.empty() ? kUnbounded : queue.front().due);
    in_flight.fix(leaf);
    const std::uint32_t consumer = fg.dst[e];
    if (!in_flight.busy(consumer)) {
      ready.push(consumer);
      drain_ready();
    }
  };

  auto describe_block = [&]() -> std::string {
    std::string info = "deadlock; blocked actors:";
    for (std::size_t a = 0; a < num_actors; ++a) {
      if (in_flight.busy(static_cast<std::uint32_t>(a))) continue;
      const ActorId aid{static_cast<ActorId::value_type>(a)};
      const std::uint32_t k = phase[a];
      for (std::size_t i = fg.in_off[a]; i < fg.in_off[a + 1]; ++i) {
        const std::uint32_t e = fg.in_edge[i];
        if (tokens[e] < fg.cons[fg.in_rate[i] + k]) {
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
        if (tokens[e] + reserved[e] + fg.prod[fg.out_rate[i] + k] >
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
  // from the period just simulated. The skip lands at most on the final
  // reference iteration and stops short of the event limit. A landing is
  // the same event of the same state, shifted in time, that the
  // firing-by-firing run reaches, with every record before it in place; on
  // the final iteration the run then ends exactly as that run does. The
  // adaptive window judges every iteration's own span, so it never skips.
  bool record_snapshots = !config.adaptive();
  std::vector<Snapshot> snapshots;
  auto take_snapshot = [&](std::uint64_t iter) {
    Snapshot snap;
    snap.state.reserve(3 * num_actors + 2 * num_edges + transit.size());
    for (std::uint32_t a = 0; a < num_actors; ++a) {
      snap.state.push_back(phase[a]);
      snap.state.push_back(cycles_done[a] % rv.cycles[a]);
      snap.state.push_back(in_flight.busy(a) ? in_flight.end(a) - now + 1 : 0);
    }
    for (std::size_t e = 0; e < num_edges; ++e) {
      snap.state.push_back(tokens[e]);
      snap.state.push_back(reserved[e]);
    }
    for (const Transit& queue : transit) {
      snap.state.push_back(queue.size());
      for (std::size_t i = 0; i < queue.size(); ++i) {
        snap.state.push_back(queue.at(i).due - now);
        snap.state.push_back(queue.at(i).tokens);
      }
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
    // Land at most on the final iteration and below the limit.
    std::uint64_t periods = 0;
    if (result.events < config.max_events) {
      periods = std::min((total_iters - 1 - iter) / iters,
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
      in_flight.shift(periods * span);
      for (Transit& queue : transit) queue.shift(periods * span);
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
    const std::uint32_t a = in_flight.top();
    if (!in_flight.busy(a)) {
      // Nothing in flight and nothing in transit.
      result.status = SimulationStatus::Deadlock;
      result.message = describe_block();
      result.end_time_ps = now;
      return result;
    }
    now = in_flight.end(a);
    if (a >= num_actors) {
      // A delivery is not a firing: it counts toward no event figure.
      deliver(static_cast<std::uint32_t>(a - num_actors));
      continue;
    }
    ++result.events;
    // The leaf is cleared now; its path is replayed only after the
    // enabling below, which most often restarts the same actor.
    in_flight.set(a, kUnbounded);

    const std::uint32_t k = phase[a];
    for (std::size_t i = fg.out_off[a]; i < fg.out_off[a + 1]; ++i) {
      const std::uint32_t e = fg.out_edge[i];
      const std::uint32_t produced = fg.prod[fg.out_rate[i] + k];
      const std::uint32_t d = fg.delay_slot[e];
      if (d == kNoDelay) {
        reserved[e] -= produced;
        tokens[e] += produced;
      } else if (produced > 0) {
        // In transit: the space stays claimed until the delivery.
        const std::uint64_t due = now + fg.latency[e];
        if (transit[d].empty()) {
          const auto leaf = static_cast<std::uint32_t>(num_actors + d);
          in_flight.set(leaf, due);
          in_flight.fix(leaf);
        }
        transit[d].push(due, produced);
      }
    }
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
      if (!in_flight.busy(consumer)) ready.push(consumer);
    }
    drain_ready();
    if (!in_flight.busy(a)) in_flight.fix(a);
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
