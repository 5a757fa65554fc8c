#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "kpn/application.hpp"
#include "noc/link_load.hpp"
#include "util/fixed_point.hpp"
#include "util/ids.hpp"

namespace rtsm::core {

/// Counters of refresh_snapshot_into() on the *source* state. Guarded by
/// whatever synchronizes mutations of the source (the managers' state
/// mutex); not internally synchronized.
struct RefreshStats {
  /// Refreshes served by replaying journal deltas (the fast path).
  std::uint64_t delta_refreshes = 0;
  /// Refreshes that fell back to a full value copy (cold scratch, mutated
  /// scratch, journal wrapped past the scratch's version, journal off).
  std::uint64_t full_copies = 0;
  /// Journal entries applied across all delta refreshes.
  std::uint64_t entries_replayed = 0;
};

/// Mutable view of what is still free on the platform.
///
/// The run-time mapper maps against this residual state rather than the bare
/// platform, which is exactly the paper's motivation: at run time the actual
/// set of running applications is known, so a new application is fitted into
/// the *remaining* capacity. Tracks per-tile compute utilisation (fraction of
/// the period spent executing) and memory, plus all NoC link reservations,
/// in exact fixed-point units (util/fixed_point.hpp).
///
/// Every mutation — tile reserve/release/saturate and, via an internal
/// LinkLoad listener, every link reserve/release — bumps a monotonic
/// version(). A state with enable_journal() additionally records each
/// mutation in a bounded ring, which lets refresh_snapshot_into() bring a
/// previously-synced scratch up to date by replaying only the deltas since
/// the scratch's version instead of copying the whole platform-sized value.
class ResourceState : private noc::LinkLoadListener {
 public:
  explicit ResourceState(const arch::Platform& platform);

  /// Copies the residual bookkeeping and marks the copy as synced with
  /// @p other at its current version, so a later
  /// other.refresh_snapshot_into(copy) can take the delta fast path. The
  /// copy starts with version 0, no journal, and its own identity.
  ResourceState(const ResourceState& other);

  /// Overwrites the bookkeeping (keeping this object's identity, journal
  /// capacity and listener registration) and syncs the destination with
  /// @p other, like the copy constructor. The destination's own journal is
  /// invalidated: its old entries no longer describe this value.
  ResourceState& operator=(const ResourceState& other);

  ~ResourceState() override = default;

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// Fraction of the tile's time already committed (0 = idle, 1 = full).
  [[nodiscard]] double utilization(TileId tile) const;

  /// The exact books behind utilization(), in quantize_utilization() units.
  [[nodiscard]] UtilUnits utilization_units(TileId tile) const;

  /// Bytes of tile-local memory already committed.
  [[nodiscard]] std::uint64_t memory_used(TileId tile) const;

  /// Memory still available on @p tile.
  [[nodiscard]] std::uint64_t memory_free(TileId tile) const;

  /// Processes currently hosted by @p tile.
  [[nodiscard]] std::uint32_t processes_hosted(TileId tile) const;

  /// True when @p extra_utilization, @p extra_memory and @p extra_processes
  /// still fit on @p tile (slots, utilisation and memory all respected).
  /// Pass extra_processes = 0 for pure memory reservations (channel
  /// buffers).
  [[nodiscard]] bool tile_fits(TileId tile, double extra_utilization,
                               std::uint64_t extra_memory,
                               std::uint32_t extra_processes = 1) const;

  /// Books the amounts on @p tile; throws rtsm::Error when they do not fit.
  void reserve_tile(TileId tile, double utilization, std::uint64_t memory,
                    std::uint32_t processes = 1);
  /// Exact inverse of reserve_tile() with the same arguments; throws
  /// rtsm::Error when more is released than the tile books.
  void release_tile(TileId tile, double utilization, std::uint64_t memory,
                    std::uint32_t processes = 1);

  [[nodiscard]] noc::LinkLoad& links() { return links_; }
  [[nodiscard]] const noc::LinkLoad& links() const { return links_; }

  /// Count of tiles with zero committed utilisation (for shutdown/energy
  /// reporting: unused tiles can be power-gated).
  [[nodiscard]] std::size_t idle_tile_count() const;

  /// Value copy of the residual state. The copy is what optimistic
  /// concurrent admission plans against: a mapper runs on the snapshot
  /// outside any lock, and the plan is re-validated against the live state
  /// (mapping_fits) before commit. Prefer refresh_snapshot_into() on the
  /// admission hot path: it reuses a scratch and replays only deltas.
  [[nodiscard]] ResourceState snapshot() const { return *this; }

  /// Marks @p tile as completely occupied (full utilisation, no free
  /// memory, no free process slots). Used on snapshots to mask tiles
  /// outside a lease stripe so a mapper can only place within it.
  void saturate_tile(TileId tile);

  /// True when @p other books exactly the same residual resources on the
  /// same platform (the books only: not identity, version or journal).
  [[nodiscard]] bool operator==(const ResourceState& other) const;

  /// Exact alias of operator==, kept for callers from the float-book days.
  [[nodiscard]] bool approx_equals(const ResourceState& other) const {
    return *this == other;
  }

  // ------------------------------------------------ versioning & journal --

  /// Monotonic mutation counter: every tile or link reserve/release/saturate
  /// bumps it by one. Two observations at the same version (with no
  /// intervening overwrite of the object) saw bit-identical state.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Starts journaling mutations into a ring of @p capacity entries, the
  /// substrate of refresh_snapshot_into()'s delta fast path. Scratches that
  /// fall more than @p capacity mutations behind fall back to a full copy.
  /// Intended for the live state of a runtime manager; snapshots normally
  /// leave it off (copies never inherit it).
  void enable_journal(std::size_t capacity = 4096);

  [[nodiscard]] bool journal_enabled() const { return journal_capacity_ > 0; }

  /// Ring capacity of the journal (0 = journaling off).
  [[nodiscard]] std::size_t journal_capacity() const {
    return journal_capacity_;
  }

  /// Oldest version the journal still covers; entries span
  /// [journal_start_version(), version()). The audit layer checks this
  /// window never exceeds the ring capacity.
  [[nodiscard]] std::uint64_t journal_start_version() const {
    return journal_start_version_;
  }

  /// Brings @p scratch up to date with this state. Fast path: when
  /// @p scratch was last synced from this very object (and not mutated
  /// since) and the journal still covers its version, only the journaled
  /// deltas are replayed — O(mutations since last sync), not O(platform).
  /// Every delta replays the exact amounts it booked through the same
  /// checks, so a refreshed scratch is bit-identical to a full copy
  /// (asserted by the hot-path test suite). Falls back to a plain full
  /// copy otherwise. Must be called under the same lock that guards
  /// mutations of this state.
  void refresh_snapshot_into(ResourceState& scratch) const;

  /// Counters of refresh_snapshot_into() calls on this (source) state.
  [[nodiscard]] RefreshStats refresh_stats() const { return refresh_stats_; }

  /// True when this state is a bit-identical image of @p source at its
  /// current version: it was copied or refreshed from @p source, has not
  /// been mutated since, and @p source has not moved past that version.
  /// The soundness condition of the managers' version-gated commit.
  [[nodiscard]] bool synced_with(const ResourceState& source) const {
    return synced_from_ == &source && synced_uid_ == source.uid_ &&
           synced_version_ == source.version_;
  }

 private:
  /// One journaled mutation; replaying it on a state bit-identical to the
  /// pre-mutation source reproduces the post-mutation source exactly.
  struct JournalEntry {
    enum class Op : std::uint8_t {
      ReserveTile,
      ReleaseTile,
      SaturateTile,
      LinkReserve,
      LinkRelease,
    };
    Op op = Op::ReserveTile;
    std::uint32_t index = 0;  ///< Tile or link index.
    std::uint64_t amount = 0;  ///< Utilisation or link demand, in units.
    std::uint64_t memory = 0;
    std::uint32_t processes = 0;
  };

  void check_tile(TileId tile) const;

  /// Records @p entry (when the journal is on), bumps version() and drops
  /// this object's own sync token — it has diverged from whatever it was
  /// last synced with. Called after every successful mutation.
  void note_mutation(const JournalEntry& entry);

  /// Replays one journal entry through the mutators that made it.
  void apply(const JournalEntry& entry);

  void on_link_reserve(LinkId link, RateUnits demand) override;
  void on_link_release(LinkId link, RateUnits demand) override;

  const arch::Platform* platform_;
  std::vector<UtilUnits> utilization_;
  std::vector<std::uint64_t> memory_used_;
  std::vector<std::uint32_t> processes_;
  noc::LinkLoad links_;

  /// Process-unique identity (never reused), so a sync token cannot
  /// mistake a new state allocated at a dead source's address for the
  /// original.
  std::uint64_t uid_;
  std::uint64_t version_ = 0;

  /// Ring journal: the entry that took this state from version v to v + 1
  /// lives at journal_[v % capacity]; entries cover versions
  /// [journal_start_version_, version_). Empty capacity = journaling off.
  std::vector<JournalEntry> journal_;
  std::size_t journal_capacity_ = 0;
  std::uint64_t journal_start_version_ = 0;

  /// Sync token (scratch side): the source object, its uid, and the source
  /// version this state was last made bit-identical to. Compared, never
  /// dereferenced. Cleared by note_mutation().
  const ResourceState* synced_from_ = nullptr;
  std::uint64_t synced_uid_ = 0;
  std::uint64_t synced_version_ = 0;

  /// Mutated in const refresh_snapshot_into(); guarded by the caller's
  /// state lock like the journal itself.
  mutable RefreshStats refresh_stats_;
};

/// Wall-clock time one symbol of work takes for @p impl of @p process when
/// run on a tile clocked at @p clock_hz, in nanoseconds.
[[nodiscard]] double impl_time_per_symbol_ns(const kpn::Application& app,
                                             ProcessId process,
                                             ImplementationId impl,
                                             std::uint64_t clock_hz);

/// Fraction of the application period consumed by @p impl on such a tile.
[[nodiscard]] double impl_utilization(const kpn::Application& app,
                                      ProcessId process, ImplementationId impl,
                                      std::uint64_t clock_hz);

/// Utilisation as booked against a tile budget. An implementation slower
/// than the period (raw > 1) claims the whole tile; whether it is admissible
/// at all is decided by step 1's screen or step 4's dataflow check, not by
/// the bookkeeping.
[[nodiscard]] inline double claimed_utilization(double raw_utilization) {
  return raw_utilization < 1.0 ? raw_utilization : 1.0;
}

}  // namespace rtsm::core
