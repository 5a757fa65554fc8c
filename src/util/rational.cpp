#include "util/rational.hpp"

#include <cstdlib>
#include <limits>
#include <ostream>

#include "util/error.hpp"

namespace rtsm {

namespace {

using Int128 = __int128;

std::int64_t checked_narrow(Int128 v, const char* context) {
  require(v >= std::numeric_limits<std::int64_t>::min() &&
              v <= std::numeric_limits<std::int64_t>::max(),
          [&] { return std::string("Rational overflow in ") + context; });
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  require(a > 0 && b > 0, "lcm64 requires positive operands");
  const std::int64_t g = gcd64(a, b);
  const Int128 result = static_cast<Int128>(a / g) * b;
  return checked_narrow(result, "lcm64");
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  require(den_ != 0, "Rational with zero denominator");
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  const std::int64_t g = gcd64(num_, den_);
  num_ /= g;
  den_ /= g;
}

std::int64_t Rational::to_integer() const {
  require(den_ == 1,
          [&] { return "Rational::to_integer on non-integer " + to_string(); });
  return num_;
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = checked_narrow(-static_cast<Int128>(num_), "negation");
  r.den_ = den_;
  return r;
}

Rational Rational::operator+(const Rational& rhs) const {
  const Int128 n = static_cast<Int128>(num_) * rhs.den_ +
                   static_cast<Int128>(rhs.num_) * den_;
  const Int128 d = static_cast<Int128>(den_) * rhs.den_;
  // Reduce in 128 bits first so intermediate blowup does not spuriously
  // overflow the 64-bit narrow.
  Int128 a = n < 0 ? -n : n;
  Int128 b = d;
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  if (a == 0) return Rational{};
  return {checked_narrow(n / a, "addition"), checked_narrow(d / a, "addition")};
}

Rational Rational::operator-(const Rational& rhs) const {
  return *this + (-rhs);
}

Rational Rational::operator*(const Rational& rhs) const {
  // Cross-reduce before multiplying to keep intermediates small.
  const std::int64_t g1 =
      num_ == 0 ? 1 : std::max<std::int64_t>(gcd64(num_, rhs.den_), 1);
  const std::int64_t g2 =
      rhs.num_ == 0 ? 1 : std::max<std::int64_t>(gcd64(rhs.num_, den_), 1);
  const Int128 n = static_cast<Int128>(num_ / g1) * (rhs.num_ / g2);
  const Int128 d = static_cast<Int128>(den_ / g2) * (rhs.den_ / g1);
  return {checked_narrow(n, "multiplication"),
          checked_narrow(d, "multiplication")};
}

Rational Rational::operator/(const Rational& rhs) const {
  require(rhs.num_ != 0, "Rational division by zero");
  return *this * rhs.inverse();
}

Rational Rational::inverse() const {
  require(num_ != 0, "Rational::inverse of zero");
  return {den_, num_};
}

std::strong_ordering Rational::operator<=>(const Rational& rhs) const {
  const Int128 lhs_v = static_cast<Int128>(num_) * rhs.den_;
  const Int128 rhs_v = static_cast<Int128>(rhs.num_) * den_;
  if (lhs_v < rhs_v) return std::strong_ordering::less;
  if (lhs_v > rhs_v) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string Rational::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace rtsm
