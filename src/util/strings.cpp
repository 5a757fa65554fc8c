#include "util/strings.hpp"

#include <array>
#include <cstdio>

namespace rtsm {

std::string join(std::span<const std::string> parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int decimals) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  return buf.data();
}

std::string format_phase_vector(std::span<const std::uint32_t> values) {
  std::string out = "<";
  std::size_t i = 0;
  bool first = true;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i]) ++run;
    if (!first) out += ", ";
    first = false;
    out += std::to_string(values[i]);
    if (run > 1) {
      out += '^';
      out += std::to_string(run);
    }
    i += run;
  }
  out += ">";
  return out;
}

std::string group_digits(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first_group =
      digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace rtsm
