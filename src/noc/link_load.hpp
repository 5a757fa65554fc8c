#pragma once

#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "util/fixed_point.hpp"
#include "util/ids.hpp"

namespace rtsm::noc {

/// A unicast route for one channel through the NoC.
///
/// links = [inject, rr..., eject] for inter-tile routes; an intra-tile route
/// (producer and consumer on the same tile) has no links at all.
struct Path {
  TileId src_tile;
  TileId dst_tile;
  std::vector<LinkId> links;

  /// Number of router-to-router links (the Manhattan distance for minimal
  /// routes; the quantity estimated by mapping step 2).
  [[nodiscard]] std::size_t rr_hops(const arch::Platform& platform) const;

  /// Routers traversed, in order (empty for intra-tile routes).
  [[nodiscard]] std::vector<RouterId> routers(
      const arch::Platform& platform) const;

  [[nodiscard]] bool is_intra_tile() const { return links.empty(); }
};

/// Observer of individual link reservation changes.
///
/// core::ResourceState registers itself on its own LinkLoad so mutations
/// made through links() (step-3 route reservations, path releases) reach
/// its version counter and delta journal. The listener pointer is
/// deliberately dropped by the copy constructor and left untouched by copy
/// assignment: a snapshot must never journal into its source, and an
/// overwritten scratch must keep observing itself.
class LinkLoadListener {
 public:
  virtual ~LinkLoadListener() = default;
  virtual void on_link_reserve(LinkId link, RateUnits demand) = 0;
  virtual void on_link_release(LinkId link, RateUnits demand) = 0;
};

/// Guaranteed-throughput reservation state of all NoC links.
///
/// Tracks the token rate reserved on every link; routing only considers
/// links whose residual capacity covers a channel's demand, which is how the
/// predictable NoC of the paper admits new connections. Rates are booked in
/// exact fixed-point units (quantize_rate).
class LinkLoad {
 public:
  explicit LinkLoad(const arch::Platform& platform);

  /// Copies reservations but not the listener: a snapshot observes nobody.
  LinkLoad(const LinkLoad& other);

  /// Copies reservations; the destination keeps its own listener.
  LinkLoad& operator=(const LinkLoad& other);

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// Tokens per second currently reserved on @p link.
  [[nodiscard]] double reserved(LinkId link) const;

  /// Capacity still available on @p link, tokens per second.
  [[nodiscard]] double residual(LinkId link) const;

  /// True when @p demand tokens/s fit on @p link.
  [[nodiscard]] bool fits(LinkId link, double demand) const;

  /// Adds @p demand to the link's reservation. Throws rtsm::Error when the
  /// reservation would exceed capacity.
  void reserve(LinkId link, double demand) {
    reserve_units(link, quantize_rate(demand));
  }

  /// Removes @p demand from the link's reservation. Throws rtsm::Error when
  /// more is released than is reserved.
  void release(LinkId link, double demand) {
    release_units(link, quantize_rate(demand));
  }

  /// The exact books behind the double API: reserved rate, capacity and
  /// reserve() / release() of @p link, in quantize_rate() units.
  [[nodiscard]] RateUnits reserved_units(LinkId link) const;
  [[nodiscard]] RateUnits capacity_units(LinkId link) const;
  void reserve_units(LinkId link, RateUnits demand);
  void release_units(LinkId link, RateUnits demand);

  /// Reserves @p demand on every link of @p path.
  void reserve_path(const Path& path, double demand);

  /// Releases @p demand from every link of @p path.
  void release_path(const Path& path, double demand);

  /// Sum of reserved rate over all links (a congestion metric).
  [[nodiscard]] double total_reserved() const;

  /// Same platform and the same reservation on every link.
  [[nodiscard]] bool operator==(const LinkLoad& other) const {
    return platform_ == other.platform_ && reserved_ == other.reserved_;
  }

  /// Registers @p listener for reserve/release notifications (null to
  /// unregister). Exactly one listener; not owned.
  void set_listener(LinkLoadListener* listener) { listener_ = listener; }

 private:
  const arch::Platform* platform_;
  std::vector<RateUnits> reserved_;
  LinkLoadListener* listener_ = nullptr;
};

}  // namespace rtsm::noc
