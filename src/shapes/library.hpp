#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/mutex.hpp"
#include "core/mapper.hpp"
#include "core/resource_state.hpp"
#include "shapes/shape.hpp"

namespace rtsm::shapes {

/// Bounds of a ShapeLibrary.
struct ShapeLibraryOptions {
  /// Total canonical shapes retained (least-recently-used eviction beyond
  /// it).
  std::size_t max_shapes = 512;

  /// Shapes retained per application skeleton; keeps one hot skeleton from
  /// monopolizing the library with placement variants.
  std::size_t max_shapes_per_skeleton = 8;
};

/// Counters of a ShapeLibrary (value snapshot; thread-safe read).
struct ShapeLibraryStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;    ///< Lookups served by an anchored shape.
  std::uint64_t misses = 0;  ///< Lookups that fell through to the mapper.
  std::uint64_t inserts = 0;
  std::uint64_t duplicates = 0;  ///< learn() of an already-known shape.
  std::uint64_t evictions = 0;
  /// Anchor transforms screened across all lookups.
  std::uint64_t anchor_probes = 0;
  /// Anchors that passed the cheap screen and ran the full mapping_fits.
  std::uint64_t full_fit_checks = 0;

  [[nodiscard]] double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  [[nodiscard]] double anchor_probes_per_hit() const {
    return hits == 0
               ? 0.0
               : static_cast<double>(anchor_probes) / static_cast<double>(hits);
  }
};

/// Result of one library lookup: the instantiated plan on a hit (success,
/// mapping, and the transferred step-4 outcome — committable through the
/// ordinary two-phase commit), plus the anchor probes this lookup spent
/// (also accumulated in stats(); returned so callers can attribute probes
/// per manager when the library is shared).
struct ShapeLookup {
  std::optional<core::MappingResult> plan;
  std::uint64_t anchor_probes = 0;
};

/// Result of one learn() call.
struct LearnResult {
  bool inserted = false;   ///< A new shape entered the library.
  bool duplicate = false;  ///< The placement canonicalized to a known shape.
  std::uint64_t evictions = 0;
};

/// Thread-safe, bounded library of relocatable mapping shapes — the
/// admission hot path. Keyed by SkeletonKey (graph structure +
/// implementation options + QoS, position- and name-independent); entries
/// are canonicalized placements (see CanonicalShape). A lookup enumerates
/// feasible anchor transforms of each stored shape against the live
/// residual state — all 8 mesh symmetries, every in-bounds translation
/// (fixture pins collapse the translations to at most one per symmetry) —
/// and returns the first anchored instantiation that passes
/// core::mapping_fits, skipping mapping steps 1-4 entirely. On a miss the
/// caller runs the full mapper and feeds the successful placement back
/// through learn() (learn-on-admit), so the library warms itself under
/// churn.
///
/// Shapes never go stale: entries are position-independent and every use
/// is re-validated against the live state, so defragmentation, preemption
/// and mode switches need no invalidation hook — they simply bypass the
/// library (their replans are position-constrained) while admission keeps
/// hitting it.
class ShapeLibrary {
 public:
  explicit ShapeLibrary(const arch::Platform& platform,
                        ShapeLibraryOptions options = {});

  /// Tries to serve @p app from the library against residual state
  /// @p state. Probing runs outside the library lock (entries are
  /// immutable); only bucket lookup and stats/recency updates serialize.
  [[nodiscard]] ShapeLookup try_instantiate(const kpn::Application& app,
                                            const core::ResourceState& state);

  /// Canonicalizes and inserts the placement of a successful full-mapper
  /// admission. No-op for unsuccessful / partial results; duplicates only
  /// refresh the stored shape's recency.
  LearnResult learn(const kpn::Application& app,
                    const core::MappingResult& result);

  [[nodiscard]] ShapeLibraryStats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }
  [[nodiscard]] const ShapeLibraryOptions& options() const { return options_; }

 private:
  struct Entry {
    CanonicalShape shape;
    std::uint64_t last_used = 0;
    std::uint64_t hits = 0;
  };
  struct Bucket {
    SkeletonKey key;
    std::vector<std::shared_ptr<Entry>> entries;
  };

  /// Enumerates anchors of @p entry against @p state; returns the first
  /// fitting mapping. Reads only immutable shape data — called unlocked.
  [[nodiscard]] std::optional<core::Mapping> probe_entry(
      const CanonicalShape& shape, const kpn::Application& app,
      const core::ResourceState& state, std::uint64_t& probes,
      std::uint64_t& full_checks) const;

  /// Probes one anchor: cheap per-process screen, then materialize +
  /// mapping_fits.
  [[nodiscard]] std::optional<core::Mapping> probe_anchor(
      const CanonicalShape& shape, const kpn::Application& app,
      const core::ResourceState& state, const arch::MeshTransform& transform,
      std::uint64_t& full_checks) const;

  /// Removes the least-recently-used entry of @p bucket (erasing the
  /// bucket when it empties); caller holds mutex_.
  void evict_lru_of_bucket(std::uint64_t bucket_hash) RTSM_REQUIRES(mutex_);
  /// Removes the globally least-recently-used entry; caller holds mutex_.
  void evict_lru_global() RTSM_REQUIRES(mutex_);

  const arch::Platform* platform_;
  MeshIndex index_;
  ShapeLibraryOptions options_;

  /// Serializes bucket/recency/stats bookkeeping only; anchor probing runs
  /// outside it. Ranked above the manager lease lock: learn-on-admit runs
  /// in validate_and_commit's tail while a lease may still be held.
  mutable audit::Mutex mutex_{audit::LockRank::kShapeLibrary,
                              "shapes.library"};
  std::unordered_map<std::uint64_t, Bucket> buckets_
      RTSM_GUARDED_BY(mutex_);  // by SkeletonKey hash
  std::size_t total_entries_ RTSM_GUARDED_BY(mutex_) = 0;
  /// Monotone recency counter.
  std::uint64_t tick_ RTSM_GUARDED_BY(mutex_) = 0;
  ShapeLibraryStats stats_ RTSM_GUARDED_BY(mutex_);
};

}  // namespace rtsm::shapes
