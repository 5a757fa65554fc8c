#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "csdf/analysis.hpp"
#include "csdf/graph.hpp"

namespace rtsm::csdf {

/// Outcome classification of a self-timed execution.
enum class SimulationStatus {
  /// The reference actor completed the requested number of iterations.
  Completed,
  /// No actor can fire and none is in flight: the graph is deadlocked
  /// (typically by insufficient buffer capacity).
  Deadlock,
  /// The event budget was exhausted before the target was reached.
  EventLimit,
};

/// Parameters of a self-timed simulation run.
struct SimulationConfig {
  /// Iterations to run before measurement starts (reach steady state).
  std::uint32_t warmup_iterations = 8;
  /// Iterations over which the period is averaged.
  std::uint32_t measured_iterations = 16;
  /// Hard cap on firings, guards against runaway multi-rate graphs.
  /// Deliveries on latency edges are not firings and do not count.
  std::uint64_t max_events = 20'000'000;
};

/// Optional source/sink pair for latency measurement.
struct LatencyProbe {
  ActorId source;
  ActorId sink;
};

/// Results of a self-timed execution.
struct SimulationResult {
  SimulationStatus status = SimulationStatus::Deadlock;

  /// Average steady-state iteration period over the measured window, ps.
  std::uint64_t period_ps = 0;

  /// Worst iteration-to-iteration distance in the measured window, ps.
  std::uint64_t max_period_ps = 0;

  /// Max over measured iterations of sink-completion minus source-start, ps
  /// (0 when no probe was given).
  std::uint64_t latency_ps = 0;

  /// Firings of the complete self-timed schedule up to the end of the run,
  /// including those a periodic fast-forward skipped. Deliveries on latency
  /// edges are not firings and are not counted.
  std::uint64_t events = 0;

  /// Firings of `events` that were not executed one by one: whole periods
  /// of the repeating schedule skipped once its state recurred.
  std::uint64_t events_skipped = 0;

  /// Time of the last processed event, ps.
  std::uint64_t end_time_ps = 0;

  /// Human-readable cause for Deadlock / EventLimit.
  std::string message;
};

/// Executes @p graph self-timed (every actor fires as early as possible,
/// sequentially, consuming tokens at firing start with output space reserved
/// at start and tokens delivered at firing end, or Edge::latency_ps after
/// it) until @p reference has completed warmup + measured iterations, where
/// one iteration of an actor is rv.cycles[actor] full phase cycles. Tokens
/// in transit keep the run going: only a state with no firing in flight
/// and no delivery pending is a deadlock.
///
/// Deterministic: among events at equal times, firing ends come before
/// deliveries, each ordered by actor id or edge id. Under the fixed window,
/// once the self-timed state at a reference-iteration completion recurs,
/// whole periods of the now repeating schedule are skipped
/// (events_skipped); every reported figure equals that of the
/// firing-by-firing run.
[[nodiscard]] SimulationResult simulate(const Graph& graph,
                                        const RepetitionVector& rv,
                                        ActorId reference,
                                        const SimulationConfig& config = {},
                                        std::optional<LatencyProbe> probe = {});

}  // namespace rtsm::csdf
