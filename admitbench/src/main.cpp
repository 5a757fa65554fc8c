// admitbench: closed-loop admission benchmark of the run-time spatial
// mapper. One invocation runs one workload for one seed and prints one
// JSON line: the correctness gate's findings, the outcome digest and every
// metric. run.py builds this binary and turns that line into the
// benchmark's result.
//
//   admitbench --workload miss-mesh16|fleet-modechurn
//              --seed N --seconds S [--traced] [--spans PATH]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace admitbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "admitbench: %s\nusage: admitbench --workload NAME --seed N "
               "--seconds S [--traced] [--spans PATH]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--spans" && has_value) {
      config.spans_path = argv[++i];
    } else if (arg == "--traced") {
      config.traced = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  RunResult result;
  try {
    if (config.workload == "miss-mesh16") {
      result = run_miss_mesh16(config);
    } else if (config.workload == "fleet-modechurn") {
      result = run_fleet_modechurn(config);
    } else {
      return usage(("unknown workload '" + config.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "admitbench: %s\n", e.what());
    return 1;
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < result.gate.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += json_string(result.gate.failures[i]);
  }
  failures += "]";
  std::string metrics = "{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", result.metrics[i].second);
    if (i > 0) metrics += ",";
    metrics += json_string(result.metrics[i].first) + ":" + value;
  }
  metrics += "}";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"gate_failures\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"deterministic\":%s,"
      "\"digest\":\"%016llx\",\"digest_calls\":%llu,\"metrics\":%s}\n",
      json_string(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      config.traced ? "true" : "false", failures.c_str(),
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.deterministic ? "true" : "false",
      static_cast<unsigned long long>(result.digest),
      static_cast<unsigned long long>(result.digest_calls), metrics.c_str());
  return 0;
}
