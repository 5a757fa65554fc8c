#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/platform.hpp"
#include "arch/transform.hpp"
#include "core/mapping.hpp"
#include "kpn/application.hpp"
#include "util/ids.hpp"

namespace rtsm::shapes {

/// Position-independent identity of an application *skeleton*: graph
/// structure, implementation options and QoS, serialized over content
/// only — names of the application, its processes and implementations are
/// deliberately excluded, so structurally identical graphs (e.g. repeated
/// instances of one workload template, or the same HIPERLAN/2 mode
/// admitted twice under different instance names) share one shape-library
/// bucket. Built with the shared word serializer (util/words.hpp): the
/// names that do enter (tile types, fixture pins) are stored as their
/// exact bytes, and the full word vector is kept next to the hash, so
/// lookups compare exactly and a key can never alias a different
/// skeleton. The word-at-a-time hash only picks the bucket.
struct SkeletonKey {
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;

  [[nodiscard]] static SkeletonKey of(const kpn::Application& app);

  bool operator==(const SkeletonKey& other) const {
    return hash == other.hash && words == other.words;
  }
};

/// One process of a canonical shape: where it sits inside the shape's
/// bounding box and what it needs from the tile there.
struct ShapeProcess {
  arch::Coord pos;
  ImplementationId impl;
  /// Tile type the chosen implementation requires; anchors whose tile at
  /// the transformed position has a different type are rejected (tile
  /// kinds break mesh symmetry on a heterogeneous platform).
  TileTypeId type;
  /// Claimed compute utilisation and implementation memory, precomputed at
  /// learn time for the cheap per-anchor fit screen.
  double utilization = 0.0;
  std::uint64_t memory_bytes = 0;
  /// Fixture pin: the process must land on exactly this platform tile,
  /// which reduces anchor enumeration to at most one translation per
  /// symmetry.
  std::optional<std::string> pinned_tile;
};

/// One channel of a canonical shape: its route as the sequence of router
/// coordinates traversed (empty for an intra-tile channel) plus the
/// step-4 buffer sizing. Storing coordinates instead of link ids is what
/// makes the route transformable: a rigid mesh transform maps the
/// coordinate sequence onto another equal-length (hence equal-latency,
/// equal-energy) route of the live mesh.
struct ShapeChannel {
  std::vector<arch::Coord> routers;
  bool has_buffer = false;
  std::uint32_t buffer_tokens = 0;
};

/// A canonicalized placement: tile assignments, routes and buffer sizes of
/// one successfully mapped application, translated to the origin and
/// reduced modulo the 8 mesh symmetries (the lexicographically smallest
/// serialization over all of D4 is the canonical representative). Also
/// carries the step-4 outcome of the learned mapping — feasibility,
/// period, latency and energy depend only on implementation content, tile
/// clocks (preserved because tile types must match) and hop counts
/// (preserved under rigid transforms), so they transfer verbatim to every
/// instantiation.
struct CanonicalShape {
  arch::Coord extent;  ///< Bounding box (width, height), covers routes too.
  std::vector<ShapeProcess> processes;  ///< Indexed by ProcessId.
  std::vector<ShapeChannel> channels;   ///< Indexed by ChannelId.

  /// Process indices most-constrained-first (pinned, then by descending
  /// utilisation): the anchor screen rejects infeasible anchors earliest
  /// by probing in this order.
  std::vector<std::uint32_t> probe_order;
  bool has_pinned = false;

  /// Canonical serialization (shared word serializer, exact pin names)
  /// and its bucket hash; two placements are the same shape iff their
  /// words match.
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;

  // Transferable outcome of the learned mapping (see class comment).
  double energy_nj_per_symbol = 0.0;
  std::uint64_t achieved_period_ps = 0;
  std::uint64_t latency_ps = 0;
};

/// Coordinate/link lookup tables of one platform, shared by every
/// instantiation against it: tile-by-coordinate (with type and pin
/// screening) and router-to-router links by endpoint pair.
class MeshIndex {
 public:
  explicit MeshIndex(const arch::Platform& platform);

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// First tile attached at coordinate @p c that matches @p type — and,
  /// when @p pinned is set, that exact tile name. Invalid id when out of
  /// bounds or nothing matches.
  [[nodiscard]] TileId tile_at(arch::Coord c, TileTypeId type,
                               const std::optional<std::string>& pinned) const;

  /// Router-to-router link @p from -> @p to; invalid id when the routers
  /// are not adjacent.
  [[nodiscard]] LinkId rr_link(RouterId from, RouterId to) const;

  /// Tile id by name without throwing; invalid id when unknown.
  [[nodiscard]] TileId tile_by_name(const std::string& name) const;

  /// Mesh coordinate of @p tile.
  [[nodiscard]] arch::Coord tile_coord(TileId tile) const;

 private:
  const arch::Platform* platform_;
  std::unordered_map<std::uint64_t, LinkId> rr_;  // (from << 32 | to)
  std::unordered_map<std::string, TileId> by_name_;
};

/// Canonicalizes the placement of @p mapping (which must be fully assigned
/// and routed) into its shape: translate to the origin, minimize over the
/// 8 mesh symmetries, serialize. The shape's outcome metrics are left at
/// zero — the caller (ShapeLibrary::learn) fills them from the
/// MappingResult.
[[nodiscard]] CanonicalShape canonicalize(const kpn::Application& app,
                                          const arch::Platform& platform,
                                          const core::Mapping& mapping);

/// Instantiates @p shape onto the mesh at anchor @p transform: resolves
/// every process to the tile at its transformed coordinate (checking
/// existence, tile type and fixture pins) and rebuilds every route from
/// its transformed router-coordinate sequence. Pure geometry — capacity is
/// NOT checked; screen the result with core::mapping_fits before
/// committing. Returns nothing when a tile is missing, a type or pin
/// mismatches, or a transformed route is broken.
[[nodiscard]] std::optional<core::Mapping> materialize(
    const CanonicalShape& shape, const kpn::Application& app,
    const MeshIndex& index, const arch::MeshTransform& transform);

}  // namespace rtsm::shapes
