#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/mapper.hpp"
#include "core/mapping.hpp"
#include "core/resource_state.hpp"
#include "energy/model.hpp"
#include "kpn/application.hpp"
#include "noc/route.hpp"

namespace rtsm::core {

/// One reversible edit of a *committed* mapping: move a single process to
/// another tile (possibly switching its implementation), or re-route /
/// re-size a single channel. A migration between two complete mappings is
/// the ordered delta list produced by diff_mappings(); applying the list
/// transfers exactly the difference between the two bookings, and rolling
/// the applied prefix back in reverse order restores the original state
/// exactly (the books are fixed-point integers).
struct MappingDelta {
  enum class Kind {
    /// Re-assign one process: tile and/or implementation change. Transfers
    /// the tile booking (utilisation, implementation memory, process slot)
    /// and the bytes of the process's sized in-channel buffers, which live
    /// on the consumer's tile.
    MoveProcess,
    /// Re-route and/or re-size one channel: transfers the link
    /// reservations from the old path to the new one and adjusts the
    /// consumer-side buffer bytes.
    RerouteChannel,
  };

  Kind kind = Kind::MoveProcess;

  // -- MoveProcess ---------------------------------------------------------
  ProcessId process;
  ImplementationId impl_before;
  ImplementationId impl_after;
  TileId tile_before;
  TileId tile_after;

  // -- RerouteChannel ------------------------------------------------------
  ChannelId channel;
  std::optional<noc::Path> path_before;
  std::optional<noc::Path> path_after;
  std::optional<std::uint32_t> buffer_before;
  std::optional<std::uint32_t> buffer_after;

  /// The delta that undoes this one (before/after sides swapped).
  [[nodiscard]] MappingDelta inverse() const;
};

/// Decomposes the difference between two complete (assigned + routed)
/// mappings of @p app into process moves followed by channel reroutes.
/// Empty when the mappings are identical. Apply in the returned order;
/// roll back in reverse order — reroute deltas account the consumer-side
/// buffer bytes against the *post-move* tile of the consumer, so moves
/// must be applied first and rolled back last.
[[nodiscard]] std::vector<MappingDelta> diff_mappings(
    const kpn::Application& app, const Mapping& before, const Mapping& after);

/// Applies @p delta to @p state and @p mapping. Atomic: when the after
/// side does not fit the residual resources, @p state and @p mapping are
/// left exactly as they were and false is returned.
[[nodiscard]] bool apply_delta(ResourceState& state,
                               const kpn::Application& app, Mapping& mapping,
                               const MappingDelta& delta);

/// Undoes a previously applied @p delta (throws rtsm::Error if the inverse
/// no longer fits, which cannot happen when deltas of one migration are
/// rolled back in reverse application order).
void rollback_delta(ResourceState& state, const kpn::Application& app,
                    Mapping& mapping, const MappingDelta& delta);

/// Cost model of a live migration. Moving a running process means pausing
/// it, shipping its state image — the implementation's memory footprint
/// plus the tokens parked in its sized input buffers — across the NoC, and
/// resuming on the destination tile; the transfer crosses the same routers
/// a channel would, so the NoC parameters and energy model are reused.
struct MigrationCostModel {
  /// Fixed quiesce + restart overhead per moved process, microseconds.
  double pause_us = 25.0;

  /// NoC word size used to convert state bytes into transfer tokens.
  std::uint32_t token_bytes = 4;

  energy::EnergyModel energy;

  /// Wall-clock migration cost of transforming @p before into @p after:
  /// per moved process, pause_us + state tokens x router hop latency x
  /// hops between the tiles. Channel reroutes are reservation updates and
  /// cost nothing here.
  [[nodiscard]] double migration_us(const kpn::Application& app,
                                    const arch::Platform& platform,
                                    const Mapping& before,
                                    const Mapping& after) const;

  /// NoC energy of the same state transfers, nanojoule (hop + NI energy
  /// per token, as for channel traffic).
  [[nodiscard]] double migration_energy_nj(const kpn::Application& app,
                                           const arch::Platform& platform,
                                           const Mapping& before,
                                           const Mapping& after) const;
};

}  // namespace rtsm::core
