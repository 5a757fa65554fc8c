#pragma once

// A test mapper that runs the paper's SpatialMapper through a relay of the
// caller's core::PlanBooking: it counts the bookings and the mapper-side
// releases, and runs optional hooks around each booking, so tests can hold
// a placement in flight between its booking and its step 4.

#include <atomic>
#include <functional>
#include <string>

#include "core/mapper.hpp"
#include "core/spatial_mapper.hpp"

namespace rtsm::test {

class BookingProbe final : public core::Mapper {
 public:
  /// Called with the 1-based arrival index of each book() call: before the
  /// relay forwards it, and after a booking that succeeded. Set both
  /// before the probe is used.
  std::function<void(int)> before_book;
  std::function<void(int)> after_book;

  /// Bookings taken, refused, and released by the mapper (a failed step 4).
  mutable std::atomic<int> books{0};
  mutable std::atomic<int> refusals{0};
  mutable std::atomic<int> releases{0};

  [[nodiscard]] std::string name() const override { return "booking-probe"; }
  [[nodiscard]] std::string describe() const override {
    return "spatial mapper behind a counting booking relay";
  }

  using Mapper::map;
  [[nodiscard]] core::MappingResult map(
      const kpn::Application& app,
      const core::ResourceState& base) const override {
    return inner_.map(app, base);
  }

  [[nodiscard]] core::MappingResult map_booked(
      const kpn::Application& app, const core::ResourceState& base,
      core::PlanBooking& booking) const override {
    Relay relay(*this, booking);
    return inner_.map_booked(app, base, relay);
  }

 private:
  class Relay final : public core::PlanBooking {
   public:
    Relay(const BookingProbe& probe, core::PlanBooking& target)
        : probe_(probe), target_(target) {}

    Result book(const kpn::Application& app, const core::Mapping& placed,
                const core::ResourceState& planned_on) override {
      const int arrival = ++probe_.arrivals_;
      if (probe_.before_book) probe_.before_book(arrival);
      const Result result = target_.book(app, placed, planned_on);
      if (result != Result::Booked) {
        ++probe_.refusals;
        return result;
      }
      ++probe_.books;
      if (probe_.after_book) probe_.after_book(arrival);
      return result;
    }

    void release() override {
      ++probe_.releases;
      target_.release();
    }

   private:
    const BookingProbe& probe_;
    core::PlanBooking& target_;
  };

  core::SpatialMapper inner_;
  mutable std::atomic<int> arrivals_{0};
};

}  // namespace rtsm::test
