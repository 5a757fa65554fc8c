#include "noc/link_load.hpp"

#include <numeric>
#include <string>

#include "util/error.hpp"

namespace rtsm::noc {

std::size_t Path::rr_hops(const arch::Platform& platform) const {
  std::size_t hops = 0;
  for (const LinkId link : links) {
    if (platform.link(link).kind == arch::LinkKind::RouterToRouter) ++hops;
  }
  return hops;
}

std::vector<RouterId> Path::routers(const arch::Platform& platform) const {
  std::vector<RouterId> result;
  for (const LinkId link : links) {
    const arch::Link& l = platform.link(link);
    switch (l.kind) {
      case arch::LinkKind::Inject:
        result.push_back(l.to_router);
        break;
      case arch::LinkKind::RouterToRouter:
        result.push_back(l.to_router);
        break;
      case arch::LinkKind::Eject:
        break;  // from_router already recorded by the previous link
    }
  }
  return result;
}

LinkLoad::LinkLoad(const arch::Platform& platform)
    : platform_(&platform), reserved_(platform.link_count(), 0) {}

LinkLoad::LinkLoad(const LinkLoad& other)
    : platform_(other.platform_), reserved_(other.reserved_) {}

LinkLoad& LinkLoad::operator=(const LinkLoad& other) {
  if (this == &other) return *this;
  platform_ = other.platform_;
  reserved_ = other.reserved_;
  return *this;
}

RateUnits LinkLoad::reserved_units(LinkId link) const {
  require(link.valid() && link.value() < reserved_.size(),
          "link id out of range");
  return reserved_[link.value()];
}

RateUnits LinkLoad::capacity_units(LinkId link) const {
  return quantize_rate(platform_->link(link).capacity_tokens_per_s);
}

double LinkLoad::reserved(LinkId link) const {
  return rate_of(reserved_units(link));
}

double LinkLoad::residual(LinkId link) const {
  return rate_of(capacity_units(link) - reserved_units(link));
}

bool LinkLoad::fits(LinkId link, double demand) const {
  return reserved_units(link) + quantize_rate(demand) <= capacity_units(link);
}

void LinkLoad::reserve_units(LinkId link, RateUnits demand) {
  require(reserved_units(link) + demand <= capacity_units(link),
          "link over-reservation");
  reserved_[link.value()] += demand;
  if (listener_ != nullptr) listener_->on_link_reserve(link, demand);
}

void LinkLoad::release_units(LinkId link, RateUnits demand) {
  require(demand <= reserved_units(link), "link over-release");
  reserved_[link.value()] -= demand;
  if (listener_ != nullptr) listener_->on_link_release(link, demand);
}

void LinkLoad::reserve_path(const Path& path, double demand) {
  const RateUnits units = quantize_rate(demand);
  // Validate the whole path first so a failed reservation is atomic. The
  // message is only formatted on failure — this loop is on the commit hot
  // path.
  for (const LinkId link : path.links) {
    if (reserved_units(link) + units > capacity_units(link)) {
      throw Error("path over-reservation on link " +
                  std::to_string(link.value()));
    }
  }
  for (const LinkId link : path.links) reserve_units(link, units);
}

void LinkLoad::release_path(const Path& path, double demand) {
  const RateUnits units = quantize_rate(demand);
  for (const LinkId link : path.links) release_units(link, units);
}

double LinkLoad::total_reserved() const {
  return rate_of(std::accumulate(reserved_.begin(), reserved_.end(),
                                 RateUnits{0}));
}

}  // namespace rtsm::noc
