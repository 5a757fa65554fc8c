#include "runtime/stats_report.hpp"

#include <cstdio>
#include <sstream>

namespace rtsm::runtime {

namespace {

/// %.6f without locale surprises; trailing zeros are fine for machine use.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string StatsReport::to_json() const {
  const AdmissionStats& a = admission;
  std::ostringstream out;
  out << "{\"admission\":{"
      << "\"offered\":" << a.offered << ",\"admitted\":" << a.admitted
      << ",\"rejected\":" << a.rejected
      << ",\"deadline_misses\":" << a.deadline_misses
      << ",\"retries\":" << a.retries << ",\"releases\":" << a.releases
      << ",\"release_errors\":" << a.release_errors
      << ",\"conflicts\":" << a.conflicts
      << ",\"booking_conflicts\":" << a.booking_conflicts
      << ",\"lease_admits\":" << a.lease_admits
      << ",\"lease_fallbacks\":" << a.lease_fallbacks
      << ",\"snapshot_reuses\":" << a.snapshot_reuses
      << ",\"mean_latency_us\":" << num(a.mean_latency_us())
      << ",\"p50_us\":" << num(a.latency_percentile_us(50.0))
      << ",\"p95_us\":" << num(a.latency_percentile_us(95.0))
      << ",\"max_us\":" << num(a.latencies.max_us());

  out << ",\"hot_path\":{\"snapshot_delta_refreshes\":"
      << a.snapshot_delta_refreshes
      << ",\"snapshot_full_copies\":" << a.snapshot_full_copies
      << ",\"journal_entries_replayed\":" << a.journal_entries_replayed
      << ",\"gated_commits\":" << a.gated_commits
      << ",\"validated_commits\":" << a.validated_commits
      << ",\"snapshot_time_us\":" << num(a.snapshot_time_us)
      << ",\"map_time_us\":" << num(a.map_time_us)
      << ",\"validate_time_us\":" << num(a.validate_time_us)
      << ",\"commit_time_us\":" << num(a.commit_time_us) << "}";

  out << ",\"defrag\":{\"passes\":" << a.defrag_passes
      << ",\"migrations\":" << a.migrations
      << ",\"migration_failures\":" << a.migration_failures
      << ",\"parked_woken_by_defrag\":" << a.parked_woken_by_defrag
      << ",\"migration_cost_us\":" << num(a.migration_cost_us)
      << ",\"fragmentation_before\":" << num(a.last_fragmentation_before)
      << ",\"fragmentation_after\":" << num(a.last_fragmentation_after) << "}";

  out << ",\"shapes\":{\"hits\":" << a.shape_hits
      << ",\"misses\":" << a.shape_misses
      << ",\"inserts\":" << a.shape_inserts
      << ",\"evictions\":" << a.shape_evictions
      << ",\"anchor_probes\":" << a.shape_anchor_probes << "}";

  out << ",\"preemption\":{\"grants\":" << a.preemption_grants
      << ",\"evictions\":" << a.preemption_evictions << "}";

  out << ",\"switches\":{\"total\":" << a.mode_switches
      << ",\"in_place\":" << a.switches_in_place
      << ",\"replanned\":" << a.switches_replanned
      << ",\"rolled_back\":" << a.switches_rolled_back
      << ",\"failures\":" << a.switch_failures
      << ",\"deadline_misses\":" << a.switch_deadline_misses
      << ",\"migration_cost_us\":" << num(a.switch_migration_cost_us)
      << ",\"p95_us\":" << num(a.switch_latencies.percentile_us(95.0)) << "}";

  out << ",\"portfolio\":{\"races\":" << a.portfolio_races
      << ",\"fallbacks\":" << a.portfolio_fallbacks << ",\"strategies\":[";
  for (std::size_t i = 0; i < a.portfolio.size(); ++i) {
    const PortfolioStrategyStats& s = a.portfolio[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << escape(s.name) << "\",\"runs\":" << s.runs
        << ",\"wins\":" << s.wins << ",\"losses\":" << s.losses
        << ",\"timeouts\":" << s.timeouts
        << ",\"spent_us\":" << num(s.spent_us) << "}";
  }
  out << "]}}";

  out << ",\"verification\":{\"lookups\":" << verification.lookups
      << ",\"hits\":" << verification.hits
      << ",\"misses\":" << verification.misses
      << ",\"hit_rate\":" << num(verification.hit_rate())
      << ",\"evictions\":" << verification.evictions
      << ",\"evicted_while_hot\":" << verification.evicted_while_hot
      << ",\"warm_started\":" << verification.warm_started
      << ",\"simulations\":" << verification.simulations
      << ",\"events_simulated\":" << verification.events_simulated
      << ",\"events_skipped\":" << verification.events_skipped
      << ",\"dominance_skips\":" << verification.dominance_skips
      << ",\"simulations_saved\":" << verification.simulations_saved
      << ",\"events_saved\":" << verification.events_saved
      << ",\"cache_entries\":" << verification.cache_entries
      << ",\"warm_hints\":" << verification.warm_hints << "}";

  out << ",\"shape_library\":{\"lookups\":" << shapes.lookups
      << ",\"hits\":" << shapes.hits << ",\"misses\":" << shapes.misses
      << ",\"hit_rate\":" << num(shapes.hit_rate())
      << ",\"inserts\":" << shapes.inserts
      << ",\"duplicates\":" << shapes.duplicates
      << ",\"evictions\":" << shapes.evictions
      << ",\"anchor_probes\":" << shapes.anchor_probes
      << ",\"full_fit_checks\":" << shapes.full_fit_checks << "}";

  out << ",\"route_cache\":{\"lookups\":" << route_cache.lookups
      << ",\"hits\":" << route_cache.hits
      << ",\"misses\":" << route_cache.misses
      << ",\"fallbacks\":" << route_cache.fallbacks
      << ",\"evictions\":" << route_cache.evictions
      << ",\"entries\":" << route_cache.entries
      << ",\"hit_rate\":" << num(route_cache.hit_rate()) << "}";

  out << ",\"release_errors\":[";
  for (std::size_t i = 0; i < release_errors.size(); ++i) {
    const ReleaseError& e = release_errors[i];
    if (i > 0) out << ",";
    out << "{\"id\":" << e.id.value() << ",\"request\":" << e.request
        << ",\"message\":\"" << escape(e.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

}  // namespace rtsm::runtime
