#include "csdf/graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace rtsm::csdf {

std::uint64_t Actor::cycle_wcet_ps() const {
  return std::accumulate(wcet_ps.begin(), wcet_ps.end(), std::uint64_t{0});
}

std::uint64_t Edge::tokens_per_src_cycle() const {
  return std::accumulate(production.begin(), production.end(),
                         std::uint64_t{0});
}

std::uint64_t Edge::tokens_per_dst_cycle() const {
  return std::accumulate(consumption.begin(), consumption.end(),
                         std::uint64_t{0});
}

std::uint32_t Edge::max_production() const {
  return production.empty()
             ? 0
             : *std::max_element(production.begin(), production.end());
}

std::uint32_t Edge::max_consumption() const {
  return consumption.empty()
             ? 0
             : *std::max_element(consumption.begin(), consumption.end());
}

ActorId Graph::add_actor(std::string name, std::vector<std::uint64_t> wcet_ps) {
  require(!wcet_ps.empty(),
          [&] { return "CSDF actor '" + name + "' needs >= 1 phase"; });
  actors_.push_back(Actor{std::move(name), std::move(wcet_ps)});
  in_.emplace_back();
  out_.emplace_back();
  return ActorId{static_cast<ActorId::value_type>(actors_.size() - 1)};
}

EdgeId Graph::add_edge(Edge edge) {
  check_actor(edge.src);
  check_actor(edge.dst);
  const Actor& src = actors_[edge.src.value()];
  const Actor& dst = actors_[edge.dst.value()];
  require(edge.production.size() == src.phase_count(), [&] {
    return "edge '" + edge.name + "': production phases (" +
           std::to_string(edge.production.size()) +
           ") do not match source actor phases (" +
           std::to_string(src.phase_count()) + ")";
  });
  require(edge.consumption.size() == dst.phase_count(), [&] {
    return "edge '" + edge.name + "': consumption phases (" +
           std::to_string(edge.consumption.size()) +
           ") do not match destination actor phases (" +
           std::to_string(dst.phase_count()) + ")";
  });
  require(edge.tokens_per_src_cycle() > 0,
          [&] { return "edge '" + edge.name + "' never carries a token"; });
  if (edge.capacity) {
    require(*edge.capacity >= edge.max_production() &&
                *edge.capacity >= edge.max_consumption(),
            [&] {
              return "edge '" + edge.name + "': capacity " +
                     std::to_string(*edge.capacity) +
                     " below the largest single-phase transfer";
            });
    require(edge.initial_tokens <= *edge.capacity, [&] {
      return "edge '" + edge.name + "': initial tokens exceed capacity";
    });
  }
  edges_.push_back(std::move(edge));
  const EdgeId id{static_cast<EdgeId::value_type>(edges_.size() - 1)};
  out_[edges_.back().src.value()].push_back(id);
  in_[edges_.back().dst.value()].push_back(id);
  return id;
}

const Actor& Graph::actor(ActorId id) const {
  check_actor(id);
  return actors_[id.value()];
}

const Edge& Graph::edge(EdgeId id) const {
  check_edge(id);
  return edges_[id.value()];
}

void Graph::set_capacity(EdgeId id, std::optional<std::uint32_t> capacity) {
  check_edge(id);
  Edge& e = edges_[id.value()];
  if (capacity) {
    require(*capacity >= e.max_production() && *capacity >= e.max_consumption(),
            [&] {
              return "edge '" + e.name + "': capacity " +
                     std::to_string(*capacity) +
                     " below the largest single-phase transfer";
            });
    require(e.initial_tokens <= *capacity, [&] {
      return "edge '" + e.name + "': initial tokens exceed capacity";
    });
  }
  e.capacity = capacity;
}

const std::vector<EdgeId>& Graph::in_edges(ActorId id) const {
  check_actor(id);
  return in_[id.value()];
}

const std::vector<EdgeId>& Graph::out_edges(ActorId id) const {
  check_actor(id);
  return out_[id.value()];
}

std::vector<ActorId> Graph::actor_ids() const {
  std::vector<ActorId> ids;
  ids.reserve(actors_.size());
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    ids.emplace_back(static_cast<ActorId::value_type>(i));
  }
  return ids;
}

std::vector<EdgeId> Graph::edge_ids() const {
  std::vector<EdgeId> ids;
  ids.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ids.emplace_back(static_cast<EdgeId::value_type>(i));
  }
  return ids;
}

ActorId Graph::actor_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].name == name) {
      return ActorId{static_cast<ActorId::value_type>(i)};
    }
  }
  throw Error("unknown CSDF actor '" + name + "'");
}

void Graph::check_actor(ActorId id) const {
  require(id.valid() && id.value() < actors_.size(),
          "CSDF actor id out of range");
}

void Graph::check_edge(EdgeId id) const {
  require(id.valid() && id.value() < edges_.size(),
          "CSDF edge id out of range");
}

}  // namespace rtsm::csdf
