#pragma once

#include <vector>

#include "arch/platform.hpp"
#include "core/mapping.hpp"
#include "csdf/graph.hpp"
#include "kpn/application.hpp"

namespace rtsm::core {

/// The CSDF graph of a fully mapped application (the paper's Figure 3):
/// one actor per process (WCET = implementation phases at the tile's clock)
/// and 4-cycle router actors along each channel's path, with finite hop
/// buffers between routers and a sizable consumer-side buffer.
///
/// Router chains are collapsed exactly. A path of H <= 2 routers has one
/// actor per router. A path of H >= 3 routers keeps its first and last
/// router's actors, joined by one "<channel>/hops" edge of capacity
/// (H-1)*b and latency (H-2)*r, where b is the hop buffer depth and r the
/// router latency. Every router has the same WCET r, every hop buffer holds
/// b >= 1 tokens and all start empty. A constraint path of the self-timed
/// schedule through a middle router then gains at most r per step, where
/// the end routers' self-loops gain r per token and every backward (space)
/// step moves b >= 1 tokens. So each such path is dominated by one that
/// runs along the end routers and the collapsed edge: token k leaves the
/// last router no earlier than (H-1)*r after the first router started it,
/// and the first router starts token k no earlier than the last router
/// started token k-(H-1)*b. Every process actor's start times are thus
/// unchanged, and with them every period, latency, deadlock verdict and
/// buffer size step 4 derives.
struct ExpandedGraph {
  csdf::Graph graph;

  /// Actor of each process (parallel to process ids).
  std::vector<ActorId> process_actor;

  /// Router actors of each channel, in path order: one per router on a
  /// path of up to two routers, the first and last router's otherwise
  /// (empty for intra-tile channels). Parallel to channel ids.
  std::vector<std::vector<ActorId>> hop_actors;

  /// The consumer-side edge of each channel — the B_i buffers of Figure 3,
  /// sized by step 4. Parallel to channel ids.
  std::vector<EdgeId> consumer_edge;
};

/// Expands the mapped application. Requires all processes assigned and all
/// channels routed. Hop buffers get the platform's router input-buffer
/// depth; consumer edges start unbounded (step 4 assigns capacities).
[[nodiscard]] ExpandedGraph expand_mapping(const kpn::Application& app,
                                           const arch::Platform& platform,
                                           const Mapping& mapping);

}  // namespace rtsm::core
