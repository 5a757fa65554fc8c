#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "csdf/graph.hpp"
#include "csdf/simulator.hpp"

namespace rtsm::csdf {

/// Parameters for minimal buffer-capacity computation.
struct BufferSizingConfig {
  /// Throughput constraint: required sustained iteration period, ps.
  std::uint64_t target_period_ps = 0;

  /// Actor whose iterations define the period (usually the stream sink).
  ActorId reference;

  /// Optional latency probe forwarded to the simulator.
  std::optional<LatencyProbe> probe;

  /// Simulation window used by every feasibility check.
  SimulationConfig simulation;

  /// Upper bound on any single capacity considered (divergence guard).
  std::uint32_t capacity_limit = 1u << 16;

  /// Optional warm-start hint, parallel to the sized edges: the capacities
  /// of a previous feasible solution of this or a structurally similar
  /// graph. The hint is clamped into the structural bounds and verified by
  /// ONE simulation on this graph; its verified verdict then seeds the
  /// monotone dominance oracle (throughput is non-decreasing in every
  /// capacity), letting the search skip simulations whose outcome the
  /// verdict already implies. A feasible hint costs the lower-bound-first
  /// probe nothing extra: when the hint is the lower bound the probe is
  /// its cached run, otherwise the hint implies the upper-bound gate the
  /// probe would have replaced. The chosen capacities are identical with
  /// and without the hint whenever the windowed period measurement is
  /// monotone in the capacities — the normal case, asserted by the
  /// equivalence property test; if the final re-check ever catches a
  /// window artefact breaking that, the search transparently re-runs
  /// fully simulated, so a hint can never make a feasible graph fail.
  std::optional<std::vector<std::uint32_t>> warm_start;
};

/// Result of buffer sizing.
struct BufferSizingResult {
  /// True when the target period is achievable with finite buffers.
  bool feasible = false;

  /// Chosen capacity per sized edge (parallel to the edges passed in).
  std::vector<std::uint32_t> capacities;

  /// Period measured with the final capacities, ps.
  std::uint64_t achieved_period_ps = 0;

  /// Latency measured with the final capacities, ps (0 without probe).
  std::uint64_t latency_ps = 0;

  /// Failure explanation when !feasible.
  std::string message;

  /// Self-timed simulations actually executed (at most one per distinct
  /// capacity vector).
  std::uint64_t simulations = 0;

  /// Feasibility verdicts implied by monotone dominance instead of a
  /// simulation (see BufferSizingConfig::warm_start).
  std::uint64_t dominance_skips = 0;

  /// Total firings across all executed simulations (the cost metric the
  /// verification engine reports as saved on a cache hit).
  std::uint64_t events_simulated = 0;

  /// Firings of events_simulated the simulator's periodic fast-forward
  /// skipped instead of executing (SimulationResult::events_skipped).
  std::uint64_t events_skipped = 0;

  /// True when a warm-start hint was applied.
  bool warm_started = false;
};

/// Computes small buffer capacities for @p edges such that @p graph sustains
/// config.target_period_ps, reproducing the role of the buffer-capacity
/// algorithm of Wiggers et al. [11] in the mapping flow.
///
/// Method: throughput under the simulator's conservative firing rule is
/// monotonically non-decreasing in every capacity, so a per-edge lower bound
/// is first established structurally and simulated. When it meets the
/// target it is the answer (one simulation). Otherwise feasibility is
/// checked at a generous upper bound, a common interpolation factor is
/// found by binary search, and each edge is then individually trimmed by
/// binary search (largest first). The result is feasible and per-edge
/// minimal w.r.t. single-edge reduction; capacities of edges not listed in
/// @p edges are left untouched.
///
/// Searching from the bottom up returns the same capacities as checking
/// the upper bound first, with one exception: the windowed period is not
/// monotone in the capacities, so on rare graphs the lower bound meets the
/// target while the upper bound's window misses it. Those graphs are now
/// feasible at the lower bound, a verdict its own simulation confirms,
/// where an upper-first search rejected them. A graph that misses even at
/// the upper bound runs one simulation more than upper-first (the lower
/// bound's), and reports the same upper-bound failure message.
///
/// @p graph is modified: on success the chosen capacities remain set.
[[nodiscard]] BufferSizingResult size_buffers(Graph& graph,
                                              const std::vector<EdgeId>& edges,
                                              const BufferSizingConfig& config);

/// Structural lower bound for a usable capacity of @p edge: the largest
/// single-phase transfer on either endpoint, and at least the initial tokens.
[[nodiscard]] std::uint32_t capacity_lower_bound(const Graph& graph,
                                                 EdgeId edge);

}  // namespace rtsm::csdf
