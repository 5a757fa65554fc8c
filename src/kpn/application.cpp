#include "kpn/application.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace rtsm::kpn {

Application::Application(std::string name, QosConstraints qos)
    : name_(std::move(name)), qos_(qos) {
  require(qos_.symbol_period_ns > 0, "application requires a positive period");
}

ProcessId Application::add_process(const std::string& name) {
  for (const Process& p : processes_) {
    require(p.name != name,
            [&] { return "duplicate process name '" + name + "'"; });
  }
  processes_.push_back(Process{name, {}, std::nullopt});
  in_channels_.emplace_back();
  out_channels_.emplace_back();
  return ProcessId{static_cast<ProcessId::value_type>(processes_.size() - 1)};
}

ProcessId Application::add_fixture(const std::string& name,
                                   const std::string& pinned_tile) {
  const ProcessId id = add_process(name);
  processes_[id.value()].pinned_tile = pinned_tile;
  return id;
}

ChannelId Application::connect(ProcessId src, ProcessId dst,
                               std::uint32_t tokens_per_symbol,
                               std::uint32_t token_bytes) {
  check_process(src);
  check_process(dst);
  require(src != dst, "self-loop channels are not supported");
  require(tokens_per_symbol > 0, "channel must carry at least one token");
  require(token_bytes > 0, "token size must be positive");
  const std::string cname =
      processes_[src.value()].name + "->" + processes_[dst.value()].name;
  channels_.push_back(Channel{cname, src, dst, tokens_per_symbol, token_bytes});
  const ChannelId id{static_cast<ChannelId::value_type>(channels_.size() - 1)};
  out_channels_[src.value()].push_back(id);
  in_channels_[dst.value()].push_back(id);
  return id;
}

ImplementationId Application::add_implementation(ProcessId process,
                                                 Implementation impl) {
  check_process(process);
  impl.validate_shape();
  auto& impls = processes_[process.value()].implementations;
  impls.push_back(std::move(impl));
  return ImplementationId{
      static_cast<ImplementationId::value_type>(impls.size() - 1)};
}

const Process& Application::process(ProcessId id) const {
  check_process(id);
  return processes_[id.value()];
}

const Channel& Application::channel(ChannelId id) const {
  check_channel(id);
  return channels_[id.value()];
}

const Implementation& Application::implementation(ProcessId process,
                                                  ImplementationId impl) const {
  const Process& p = this->process(process);
  require(impl.valid() && impl.value() < p.implementations.size(), [&] {
    return "implementation id out of range for process '" + p.name + "'";
  });
  return p.implementations[impl.value()];
}

std::vector<ProcessId> Application::process_ids() const {
  std::vector<ProcessId> ids;
  ids.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    ids.emplace_back(static_cast<ProcessId::value_type>(i));
  }
  return ids;
}

std::vector<ChannelId> Application::channel_ids() const {
  std::vector<ChannelId> ids;
  ids.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    ids.emplace_back(static_cast<ChannelId::value_type>(i));
  }
  return ids;
}

const std::vector<ChannelId>& Application::in_channels(ProcessId id) const {
  check_process(id);
  return in_channels_[id.value()];
}

const std::vector<ChannelId>& Application::out_channels(ProcessId id) const {
  check_process(id);
  return out_channels_[id.value()];
}

ProcessId Application::process_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i].name == name) {
      return ProcessId{static_cast<ProcessId::value_type>(i)};
    }
  }
  throw Error("unknown process '" + name + "' in application '" + name_ + "'");
}

double Application::tokens_per_second(ChannelId id) const {
  const Channel& c = channel(id);
  return static_cast<double>(c.tokens_per_symbol) * 1e9 /
         static_cast<double>(qos_.symbol_period_ns);
}

double Application::bits_per_second(ChannelId id) const {
  const Channel& c = channel(id);
  return tokens_per_second(id) * 8.0 * c.token_bytes;
}

std::uint64_t Application::cycles_per_symbol(ProcessId process,
                                             ImplementationId impl) const {
  const Implementation& im = implementation(process, impl);
  std::optional<std::uint64_t> cycles;
  auto account = [&](const PortSpec& port) {
    const Channel& c = channel(port.channel);
    const std::uint64_t per_cycle = Implementation::tokens_per_cycle(port);
    require(per_cycle > 0,
            [&] { return "implementation '" + im.name + "': dead port"; });
    require(c.tokens_per_symbol % per_cycle == 0, [&] {
      return "implementation '" + im.name + "': " +
             std::to_string(c.tokens_per_symbol) +
             " tokens/symbol on channel '" + c.name +
             "' is not a multiple of " + std::to_string(per_cycle) +
             " tokens/cycle";
    });
    const std::uint64_t n = c.tokens_per_symbol / per_cycle;
    require(!cycles || *cycles == n, [&] {
      return "implementation '" + im.name +
             "': ports imply different cycles-per-symbol counts";
    });
    cycles = n;
  };
  for (const PortSpec& port : im.inputs) account(port);
  for (const PortSpec& port : im.outputs) account(port);
  require(cycles.has_value(),
          [&] { return "implementation '" + im.name + "' has no ports"; });
  return *cycles;
}

void Application::validate() const {
  require(!processes_.empty(),
          [&] { return "application '" + name_ + "' has no processes"; });

  // Topology: weak connectivity over the KPN.
  graph::Digraph g;
  g.add_nodes(processes_.size());
  for (const Channel& c : channels_) {
    g.add_arc(NodeId{c.src.value()}, NodeId{c.dst.value()});
  }
  require(g.is_weakly_connected(), [&] {
    return "application '" + name_ + "' is not weakly connected";
  });

  for (std::size_t pi = 0; pi < processes_.size(); ++pi) {
    const Process& p = processes_[pi];
    const ProcessId pid{static_cast<ProcessId::value_type>(pi)};
    require(!p.implementations.empty(),
            [&] { return "process '" + p.name + "' has no implementation"; });

    for (std::size_t ii = 0; ii < p.implementations.size(); ++ii) {
      const Implementation& im = p.implementations[ii];
      im.validate_shape();

      // Ports must cover exactly the process's channels, each once.
      auto check_ports = [&](const std::vector<PortSpec>& ports,
                             const std::vector<ChannelId>& expected,
                             const char* direction) {
        require(ports.size() == expected.size(), [&] {
          return "implementation '" + im.name + "' covers " +
                 std::to_string(ports.size()) + " " + direction +
                 " ports, process has " + std::to_string(expected.size());
        });
        std::unordered_set<ChannelId> seen;
        for (const PortSpec& port : ports) {
          check_channel(port.channel);
          require(seen.insert(port.channel).second, [&] {
            return "implementation '" + im.name + "' binds channel twice";
          });
          require(std::find(expected.begin(), expected.end(), port.channel) !=
                      expected.end(),
                  [&] {
                    return "implementation '" + im.name +
                           "' binds a channel not connected to its process";
                  });
        }
      };
      check_ports(im.inputs, in_channels_[pi], "input");
      check_ports(im.outputs, out_channels_[pi], "output");

      // Rate consistency: integral, identical cycles-per-symbol across ports.
      (void)cycles_per_symbol(
          pid,
          ImplementationId{static_cast<ImplementationId::value_type>(ii)});
    }
  }
}

void Application::check_process(ProcessId id) const {
  require(id.valid() && id.value() < processes_.size(), [&] {
    return "process id out of range in application '" + name_ + "'";
  });
}

void Application::check_channel(ChannelId id) const {
  require(id.valid() && id.value() < channels_.size(), [&] {
    return "channel id out of range in application '" + name_ + "'";
  });
}

}  // namespace rtsm::kpn
