#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace rtsm {

/// Exact units of the residual-state books. Utilisation and link rates
/// arrive as doubles but are booked as unsigned fixed-point integers, whose
/// sums do not depend on the order of their terms: a fit check needs no
/// slack, a release is the exact inverse of its reserve, and states reached
/// through different histories compare with ==. The quantize functions
/// below are the only conversions into booked units. Their scales are
/// powers of two, so a reservation is booked less than one unit short of
/// its double, never over it.
using UtilUnits = std::uint64_t;
using RateUnits = std::uint64_t;

/// One tile's full time budget: utilisation 1.0.
inline constexpr UtilUnits kFullTile = UtilUnits{1} << 48;
/// Ceiling of a quantized amount; the sum of two cannot overflow.
inline constexpr std::uint64_t kMaxUnits = std::uint64_t{1} << 62;

namespace detail {
[[noreturn, gnu::cold, gnu::noinline]] inline void negative_quantity() {
  throw Error("negative (or NaN) utilisation or link rate");
}
/// The throw stays out of line, so callers inline the conversion.
[[nodiscard]] inline std::uint64_t quantize(double value, double scale) {
  if (!(value >= 0.0)) [[unlikely]] negative_quantity();
  const double scaled = value * scale;
  // Below kMaxUnits a signed conversion truncates exactly, without a branch.
  return scaled >= static_cast<double>(kMaxUnits)
             ? kMaxUnits
             : static_cast<std::uint64_t>(static_cast<std::int64_t>(scaled));
}
}  // namespace detail

/// Utilisation in units of 2^-48 of a tile, rounded toward zero. Bound:
/// bookings on a tile never exceed kFullTile, one non-zero utilisation per
/// hosted process, so a tile with S process slots admits less than
/// 1 + S * 2^-48 of true utilisation: within the former 1e-9 slack for any
/// S <= 281,474.
[[nodiscard]] inline UtilUnits quantize_utilization(double utilization) {
  return detail::quantize(utilization, 0x1p48);
}

[[nodiscard]] inline double utilization_of(UtilUnits units) {
  return static_cast<double>(units) * 0x1p-48;
}

/// Link rate in units of 2^-20 tokens/s, rounded toward zero. Bound: a
/// link with N reservations admits less than N * 2^-20 tokens/s beyond its
/// capacity; on a default 200e6 tokens/s link that is within the former
/// relative 1e-9 slack (0.2 tokens/s) for any N <= 209,715.
[[nodiscard]] inline RateUnits quantize_rate(double tokens_per_s) {
  return detail::quantize(tokens_per_s, 0x1p20);
}

[[nodiscard]] inline double rate_of(RateUnits units) {
  return static_cast<double>(units) * 0x1p-20;
}

}  // namespace rtsm
