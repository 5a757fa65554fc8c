#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapper.hpp"
#include "core/resource_state.hpp"
#include "kpn/application.hpp"
#include "noc/route_cache.hpp"
#include "runtime/fleet.hpp"
#include "runtime/runtime_manager.hpp"
#include "step_timed_mapper.hpp"
#include "verify/engine.hpp"

namespace admitbench {

using Clock = std::chrono::steady_clock;

/// What one invocation of the benchmark binary runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Install the StepTimedMapper and report per-layer metrics.
  bool traced = false;
  /// Where a traced run writes its per-request spans (CSV); empty = keep
  /// them in memory only.
  std::string spans_path;
};

/// Named metric values in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// One client call, timed from outside the program.
struct Span {
  enum class Kind : std::uint8_t { Admit, Release, Switch, DefragTick };
  Kind kind = Kind::Admit;
  std::uint32_t client = 0;
  /// Start of the call, microseconds since the run began.
  double start_us = 0.0;
  /// Wall time of the call (submit until the outcome is in hand).
  double us = 0.0;
  /// Admit: rtsm::runtime::AdmitStatus; Switch: rtsm::runtime::SwitchStatus;
  /// Release: 1 when the release was honoured.
  std::int32_t status = 0;
  bool shape_hit = false;
  /// Rejected because optimistic validation kept conflicting.
  bool conflict = false;
  std::uint32_t attempts = 0;
  /// AdmitOutcome::mapping_us: the manager's own mapper time.
  double mapper_us = 0.0;
  double energy_nj = 0.0;
  /// A call that did not complete as the API promises (a future that did
  /// not resolve, a refused release of a live id, a switch of a live id
  /// reported unknown). Rejected admissions are answers, not failures.
  bool failed = false;
};

/// Latency distribution in constant memory: logarithmic buckets 1% wide,
/// so a run records any number of calls without its own buffers growing.
/// The 8 KB of buckets are allocated on the first record, and most
/// histograms of a workload stay empty, so the bookkeeping stays a small
/// share of peak_rss_mb. Percentiles interpolate inside the bucket that
/// holds the rank.
class Histogram {
 public:
  void record(double us);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Percentile @p p in [0, 100]; 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// What the calls of one phase add up to: counts, latency histograms per
/// call class, the outcome digest of the first calls, and (traced runs
/// only) the spans of the first kMaxSpans calls with the step tallies the
/// traced mapper attributed to each.
class ClientLog {
 public:
  static constexpr std::size_t kMaxSpans = 100000;

  ClientLog(std::uint32_t client, bool traced, Clock::time_point origin,
            std::size_t digest_limit)
      : client_(client),
        traced_(traced),
        origin_(origin),
        digest_limit_(digest_limit) {}

  void admit(Clock::time_point start, Clock::time_point end,
             const rtsm::runtime::AdmitOutcome& outcome,
             const StepTally& steps);
  void release(Clock::time_point start, Clock::time_point end, bool ok,
               const StepTally& steps);
  void switched(Clock::time_point start, Clock::time_point end,
                const rtsm::runtime::SwitchOutcome& outcome,
                const StepTally& steps);
  void tick(Clock::time_point start, Clock::time_point end,
            const StepTally& steps);
  /// An admission whose future never resolved.
  void lost(Clock::time_point start, Clock::time_point end);

  /// Adds @p other's counts and histograms (spans and digest stay).
  void merge(const ClientLog& other);

  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t admissions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t attempts = 0;
  std::uint64_t switches = 0;
  std::uint64_t switches_in_place = 0;
  std::uint64_t switches_rolled_back = 0;
  double energy_nj = 0.0;
  Histogram admit_us, hit_us, miss_us, non_mapper_us, release_us, switch_us,
      replan_us, tick_us;

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::size_t digested() const { return digested_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<StepTally>& steps() const { return steps_; }

 private:
  [[nodiscard]] Span begin(Span::Kind kind, Clock::time_point start,
                           Clock::time_point end) const;
  /// Counts @p span, folds it into the digest and keeps it when traced.
  void finish(const Span& span, const StepTally& steps);

  std::uint32_t client_;
  bool traced_;
  Clock::time_point origin_;
  std::size_t digest_limit_;
  /// FNV-1a over kind, status, shape hit and energy bits of the first
  /// digest_limit_ calls.
  std::uint64_t digest_ = 1469598103934665603ull;
  std::size_t digested_ = 0;
  std::vector<Span> spans_;
  std::vector<StepTally> steps_;
};

/// Counters read from the program (and the traced mapper) at the start
/// and end of each round's timed phase; per-layer metrics use the
/// differences, summed over the rounds.
struct Counters {
  StepTally steps;
  rtsm::verify::EngineStats verify;
  rtsm::noc::RouteCacheStats routes;
  std::uint64_t shape_hits = 0;
  std::uint64_t shape_misses = 0;
  std::uint64_t shape_probes = 0;
  double snapshot_us = 0.0;
  double validate_us = 0.0;
  double commit_us = 0.0;
  std::uint64_t gated_commits = 0;
  std::uint64_t validated_commits = 0;
  std::uint64_t migrations = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  rtsm::runtime::FleetStats fleet;

  /// Adds one manager's admission counters.
  void add(const rtsm::runtime::AdmissionStats& stats);
  /// Reads the mapper's verification engine, route cache and (when it is
  /// the traced mapper) step tallies.
  void read_mapper(const rtsm::core::Mapper& mapper);
  /// Adds @p after minus @p before (max_imbalance: the larger maximum).
  void accumulate(const Counters& after, const Counters& before);
};

/// Correctness gate findings; the run is correct when none were recorded.
struct Gate {
  std::vector<std::string> failures;
  void fail(std::string what) { failures.push_back(std::move(what)); }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// One running application and its committed mapping.
using Survivor =
    std::pair<std::shared_ptr<const rtsm::kpn::Application>, rtsm::core::Mapping>;

/// The books of one manager balance: the survivors, recommitted in order
/// onto a fresh ResourceState, each pass mapping_fits and together
/// reproduce @p live.
void check_books(const rtsm::arch::Platform& platform,
                 const rtsm::core::ResourceState& live,
                 const std::vector<Survivor>& survivors,
                 const std::string& label, Gate& gate);

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Everything one run reports.
struct RunResult {
  Gate gate;
  /// Client calls in the timed phase, and those that failed (see Span).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Outcomes reproduce exactly for a given seed (single-client runs).
  bool deterministic = false;
  std::uint64_t digest = 0;
  std::uint64_t digest_calls = 0;
  Metrics metrics;
};

/// Measured inputs to the metrics of one workload run: the clients' logs
/// and the program's counters over every round's timed phase, and the
/// rounds' set-up times.
struct PhaseRecord {
  std::vector<ClientLog> logs;
  double timed_s = 0.0;
  std::vector<double> setup_s;
  /// Outcome digest of the first round's warm-up.
  std::uint64_t warm_up_digest = 0;
  Counters counters;
};

/// Fills @p result's attempted/failed counts, digest and metrics from
/// @p record; writes the spans when @p config asks for it.
void summarise(const RunConfig& config, const PhaseRecord& record,
               RunResult& result);

/// The workloads (see README.md for why each exists).
RunResult run_miss_mesh16(const RunConfig& config);
RunResult run_fleet_modechurn(const RunConfig& config);

}  // namespace admitbench
