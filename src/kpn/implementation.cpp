#include "kpn/implementation.hpp"

#include <numeric>

#include "util/error.hpp"

namespace rtsm::kpn {

std::uint64_t Implementation::cycle_wcet_cc() const {
  return std::accumulate(wcet_cc.begin(), wcet_cc.end(), std::uint64_t{0});
}

std::uint64_t Implementation::tokens_per_cycle(const PortSpec& port) {
  return std::accumulate(port.rates.begin(), port.rates.end(),
                         std::uint64_t{0});
}

void Implementation::validate_shape() const {
  require(!wcet_cc.empty(),
          [&] { return "implementation '" + name + "' has no phases"; });
  const std::size_t n = wcet_cc.size();
  for (const auto& port : inputs) {
    require(port.rates.size() == n, [&] {
      return "implementation '" + name +
             "': input port phase count mismatches WCET phases";
    });
    require(tokens_per_cycle(port) > 0, [&] {
      return "implementation '" + name + "': input port never reads a token";
    });
  }
  for (const auto& port : outputs) {
    require(port.rates.size() == n, [&] {
      return "implementation '" + name +
             "': output port phase count mismatches WCET phases";
    });
    require(tokens_per_cycle(port) > 0, [&] {
      return "implementation '" + name + "': output port never writes a token";
    });
  }
  require(energy_nj_per_symbol >= 0.0,
          [&] { return "implementation '" + name + "': negative energy"; });
}

PhaseRates phases(std::initializer_list<PhaseRun> runs) {
  PhaseRates out;
  for (const PhaseRun& run : runs) {
    for (std::uint32_t i = 0; i < run.repeat; ++i) out.push_back(run.value);
  }
  return out;
}

PhaseRates uniform_phases(std::uint32_t value, std::size_t n) {
  return PhaseRates(n, value);
}

}  // namespace rtsm::kpn
