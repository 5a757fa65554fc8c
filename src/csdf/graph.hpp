#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace rtsm::csdf {

/// An actor of a Cyclo-Static Dataflow graph.
///
/// An actor cycles through its phases; firing phase k takes wcet_ps[k]
/// picoseconds, consumes the phase-k tokens of every input edge and produces
/// the phase-k tokens of every output edge. Actors execute sequentially
/// (no auto-concurrency), matching a process bound to a single tile.
struct Actor {
  std::string name;
  /// Worst-case execution time per phase, picoseconds.
  std::vector<std::uint64_t> wcet_ps;

  [[nodiscard]] std::size_t phase_count() const { return wcet_ps.size(); }
  [[nodiscard]] std::uint64_t cycle_wcet_ps() const;
};

/// A FIFO edge of a CSDF graph.
///
/// production[k] tokens are appended when the source completes its phase-k
/// firing; consumption[k] tokens are removed when the destination starts its
/// phase-k firing. A finite capacity models a bounded buffer: space for the
/// produced tokens is reserved when the producer *starts* a firing
/// (conservative buffer semantics, as required for guaranteed QoS).
///
/// A positive latency_ps models a pipeline in transit: tokens a firing
/// produces become consumable latency_ps after that firing ends, and they
/// occupy capacity from the reservation until they are consumed.
struct Edge {
  std::string name;
  ActorId src;
  ActorId dst;
  /// Tokens produced per source phase (length = src phase count).
  std::vector<std::uint32_t> production;
  /// Tokens consumed per destination phase (length = dst phase count).
  std::vector<std::uint32_t> consumption;
  /// Tokens present before execution starts.
  std::uint32_t initial_tokens = 0;
  /// FIFO capacity in tokens; nullopt = unbounded.
  std::optional<std::uint32_t> capacity;
  /// Delay from the end of the producing firing until its tokens can be
  /// consumed, ps.
  std::uint64_t latency_ps = 0;

  [[nodiscard]] std::uint64_t tokens_per_src_cycle() const;
  [[nodiscard]] std::uint64_t tokens_per_dst_cycle() const;
  /// Largest single-phase production (a lower bound on a usable capacity).
  [[nodiscard]] std::uint32_t max_production() const;
  /// Largest single-phase consumption.
  [[nodiscard]] std::uint32_t max_consumption() const;
};

/// A Cyclo-Static Dataflow graph (Bilsen et al. [2]).
class Graph {
 public:
  /// Adds an actor with per-phase WCETs in picoseconds.
  ActorId add_actor(std::string name, std::vector<std::uint64_t> wcet_ps);

  /// Adds an edge; phase vector lengths must match the endpoint actors.
  EdgeId add_edge(Edge edge);

  [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const Actor& actor(ActorId id) const;
  [[nodiscard]] const Edge& edge(EdgeId id) const;

  /// Mutable access for capacity assignment during buffer sizing.
  void set_capacity(EdgeId id, std::optional<std::uint32_t> capacity);

  [[nodiscard]] const std::vector<EdgeId>& in_edges(ActorId id) const;
  [[nodiscard]] const std::vector<EdgeId>& out_edges(ActorId id) const;

  [[nodiscard]] std::vector<ActorId> actor_ids() const;
  [[nodiscard]] std::vector<EdgeId> edge_ids() const;

  /// Actor id by name; throws rtsm::Error if absent.
  [[nodiscard]] ActorId actor_by_name(const std::string& name) const;

 private:
  void check_actor(ActorId id) const;
  void check_edge(EdgeId id) const;

  std::vector<Actor> actors_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<std::vector<EdgeId>> out_;
};

}  // namespace rtsm::csdf
