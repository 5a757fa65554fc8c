#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace admitbench {

using namespace rtsm;

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mean_us(std::uint64_t ns, std::uint64_t calls) {
  return ratio(static_cast<double>(ns) / 1e3, static_cast<double>(calls));
}

/// The process's resident-set high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so the launching interpreter's
/// footprint does not leak into the figure.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void write_spans(const std::string& path, const PhaseRecord& record) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "client,index,kind,start_us,us,status,shape_hit,conflict,"
               "attempts,mapper_us,energy_nj,map_calls,rounds,setup_us,"
               "step1_us,step2_us,step3_us,step4_us\n");
  static const char* kKinds[] = {"admit", "release", "switch", "defrag_tick"};
  for (const ClientLog& log : record.logs) {
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      const StepTally t = i < log.steps().size() ? log.steps()[i] : StepTally{};
      std::fprintf(f,
                   "%u,%zu,%s,%.3f,%.3f,%d,%d,%d,%u,%.3f,%.6f,%llu,%llu,%.3f,"
                   "%.3f,%.3f,%.3f,%.3f\n",
                   s.client, i, kKinds[static_cast<int>(s.kind)], s.start_us,
                   s.us, s.status, s.shape_hit ? 1 : 0, s.conflict ? 1 : 0,
                   s.attempts, s.mapper_us, s.energy_nj,
                   static_cast<unsigned long long>(t.calls),
                   static_cast<unsigned long long>(t.rounds),
                   t.setup_ns / 1e3, t.step_ns[0] / 1e3, t.step_ns[1] / 1e3,
                   t.step_ns[2] / 1e3, t.step_ns[3] / 1e3);
    }
  }
  std::fclose(f);
}

constexpr double kBucketRatio = 1.01;
constexpr double kLowestUs = 0.1;
constexpr std::size_t kBuckets = 2100;  // 0.1 us .. ~120 s

double bucket_low(std::size_t b) {
  return kLowestUs * std::pow(kBucketRatio, static_cast<double>(b));
}

}  // namespace

// ------------------------------------------------------------- Histogram --

void Histogram::record(double us) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  const double v = std::max(us, kLowestUs);
  const auto b = static_cast<std::size_t>(std::log(v / kLowestUs) /
                                          std::log(kBucketRatio));
  ++buckets_[std::min(b, kBuckets - 1)];
  min_ = count_ == 0 ? us : std::min(min_, us);
  max_ = count_ == 0 ? us : std::max(max_, us);
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest rank, then the rank's position inside its bucket places the
  // value between the bucket's bounds.
  const double rank = std::max(
      1.0, std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(count_)));
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(below + buckets_[b]) >= rank) {
      const double within = (rank - static_cast<double>(below) - 0.5) /
                            static_cast<double>(buckets_[b]);
      const double v =
          bucket_low(b) * std::pow(kBucketRatio, std::clamp(within, 0.0, 1.0));
      return std::clamp(v, min_, max_);
    }
    below += buckets_[b];
  }
  return max_;
}

// ------------------------------------------------------------- ClientLog --

Span ClientLog::begin(Span::Kind kind, Clock::time_point start,
                      Clock::time_point end) const {
  Span span;
  span.kind = kind;
  span.client = client_;
  span.start_us = micros(origin_, start);
  span.us = micros(start, end);
  return span;
}

void ClientLog::finish(const Span& span, const StepTally& steps) {
  ++calls;
  if (span.failed) ++failed;
  if (digested_ < digest_limit_) {
    ++digested_;
    const auto mix = [this](const void* data, std::size_t n) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < n; ++i) {
        digest_ ^= bytes[i];
        digest_ *= 1099511628211ull;
      }
    };
    const auto kind = static_cast<std::uint8_t>(span.kind);
    const std::uint8_t hit = span.shape_hit ? 1 : 0;
    std::uint64_t energy_bits = 0;
    std::memcpy(&energy_bits, &span.energy_nj, sizeof energy_bits);
    mix(&kind, 1);
    mix(&span.status, sizeof span.status);
    mix(&hit, 1);
    mix(&energy_bits, sizeof energy_bits);
  }
  if (traced_ && spans_.size() < kMaxSpans) {
    spans_.push_back(span);
    steps_.push_back(steps);
  }
}

void ClientLog::admit(Clock::time_point start, Clock::time_point end,
                      const runtime::AdmitOutcome& outcome,
                      const StepTally& steps) {
  Span span = begin(Span::Kind::Admit, start, end);
  span.status = static_cast<std::int32_t>(outcome.status);
  span.shape_hit = outcome.shape_hit;
  span.attempts = outcome.attempts;
  span.mapper_us = outcome.mapping_us;
  const bool ok = outcome.status == runtime::AdmitStatus::Admitted;
  span.energy_nj = ok ? outcome.mapping.energy_nj_per_symbol : 0.0;
  span.conflict = !ok && outcome.mapping.failure.find(
                             "optimistic validation kept conflicting") !=
                             std::string::npos;
  span.failed = !ok && outcome.status != runtime::AdmitStatus::Rejected;

  ++admissions;
  attempts += span.attempts;
  if (span.conflict) ++conflicts;
  if (ok) {
    ++admitted;
    energy_nj += span.energy_nj;
  }
  admit_us.record(span.us);
  (span.shape_hit ? hit_us : miss_us).record(span.us);
  non_mapper_us.record(span.us - span.mapper_us);
  finish(span, steps);
}

void ClientLog::release(Clock::time_point start, Clock::time_point end,
                        bool ok, const StepTally& steps) {
  Span span = begin(Span::Kind::Release, start, end);
  span.status = ok ? 1 : 0;
  span.failed = !ok;
  release_us.record(span.us);
  finish(span, steps);
}

void ClientLog::switched(Clock::time_point start, Clock::time_point end,
                         const runtime::SwitchOutcome& outcome,
                         const StepTally& steps) {
  Span span = begin(Span::Kind::Switch, start, end);
  span.status = static_cast<std::int32_t>(outcome.status);
  span.failed = outcome.status == runtime::SwitchStatus::UnknownId ||
                outcome.status == runtime::SwitchStatus::DeadlineMiss;
  ++switches;
  switch_us.record(span.us);
  if (outcome.status == runtime::SwitchStatus::InPlace) ++switches_in_place;
  if (outcome.status == runtime::SwitchStatus::Replanned) {
    replan_us.record(span.us);
  }
  if (outcome.status == runtime::SwitchStatus::RolledBack) {
    ++switches_rolled_back;
  }
  finish(span, steps);
}

void ClientLog::tick(Clock::time_point start, Clock::time_point end,
                     const StepTally& steps) {
  const Span span = begin(Span::Kind::DefragTick, start, end);
  tick_us.record(span.us);
  finish(span, steps);
}

void ClientLog::lost(Clock::time_point start, Clock::time_point end) {
  Span span = begin(Span::Kind::Admit, start, end);
  span.status = -1;
  span.failed = true;
  ++admissions;
  finish(span, {});
}

void ClientLog::merge(const ClientLog& o) {
  calls += o.calls;
  failed += o.failed;
  admissions += o.admissions;
  admitted += o.admitted;
  conflicts += o.conflicts;
  attempts += o.attempts;
  switches += o.switches;
  switches_in_place += o.switches_in_place;
  switches_rolled_back += o.switches_rolled_back;
  energy_nj += o.energy_nj;
  admit_us.merge(o.admit_us);
  hit_us.merge(o.hit_us);
  miss_us.merge(o.miss_us);
  non_mapper_us.merge(o.non_mapper_us);
  release_us.merge(o.release_us);
  switch_us.merge(o.switch_us);
  replan_us.merge(o.replan_us);
  tick_us.merge(o.tick_us);
}

// -------------------------------------------------------------- Counters --

void Counters::add(const runtime::AdmissionStats& stats) {
  shape_hits += stats.shape_hits;
  shape_misses += stats.shape_misses;
  shape_probes += stats.shape_anchor_probes;
  snapshot_us += stats.snapshot_time_us;
  validate_us += stats.validate_time_us;
  commit_us += stats.commit_time_us;
  gated_commits += stats.gated_commits;
  validated_commits += stats.validated_commits;
  migrations += stats.migrations;
  offered += stats.offered;
  admitted += stats.admitted;
  rejected += stats.rejected;
}

void Counters::read_mapper(const core::Mapper& mapper) {
  if (const auto engine = mapper.verification_engine()) verify = engine->stats();
  if (const auto cache = mapper.route_cache()) routes = cache->stats();
  if (const auto* timed = dynamic_cast<const StepTimedMapper*>(&mapper)) {
    steps = timed->totals();
  }
}

void Counters::accumulate(const Counters& after, const Counters& before) {
  steps.add(after.steps.minus(before.steps));
  const auto grow = [](auto& sum, auto a, auto b) { sum += a - b; };
  grow(verify.lookups, after.verify.lookups, before.verify.lookups);
  grow(verify.hits, after.verify.hits, before.verify.hits);
  grow(verify.evicted_while_hot, after.verify.evicted_while_hot,
       before.verify.evicted_while_hot);
  grow(verify.simulations, after.verify.simulations, before.verify.simulations);
  grow(verify.events_simulated, after.verify.events_simulated,
       before.verify.events_simulated);
  grow(routes.lookups, after.routes.lookups, before.routes.lookups);
  grow(routes.hits, after.routes.hits, before.routes.hits);
  grow(routes.fallbacks, after.routes.fallbacks, before.routes.fallbacks);
  grow(shape_hits, after.shape_hits, before.shape_hits);
  grow(shape_misses, after.shape_misses, before.shape_misses);
  grow(shape_probes, after.shape_probes, before.shape_probes);
  grow(snapshot_us, after.snapshot_us, before.snapshot_us);
  grow(validate_us, after.validate_us, before.validate_us);
  grow(commit_us, after.commit_us, before.commit_us);
  grow(gated_commits, after.gated_commits, before.gated_commits);
  grow(validated_commits, after.validated_commits, before.validated_commits);
  grow(migrations, after.migrations, before.migrations);
  grow(offered, after.offered, before.offered);
  grow(admitted, after.admitted, before.admitted);
  grow(rejected, after.rejected, before.rejected);
  grow(fleet.dispatches, after.fleet.dispatches, before.fleet.dispatches);
  grow(fleet.spills, after.fleet.spills, before.fleet.spills);
  grow(fleet.spill_failures, after.fleet.spill_failures,
       before.fleet.spill_failures);
  // The fleet reports only its lifetime maximum.
  fleet.max_imbalance = std::max(fleet.max_imbalance, after.fleet.max_imbalance);
}

// ------------------------------------------------------------------ gate --

void check_books(const arch::Platform& platform,
                 const core::ResourceState& live,
                 const std::vector<Survivor>& survivors,
                 const std::string& label, Gate& gate) {
  core::ResourceState replayed(platform);
  for (const auto& [app, mapping] : survivors) {
    if (!core::mapping_fits(replayed, *app, mapping)) {
      gate.fail(label + ": survivor " + app->name() + " fails mapping_fits");
      return;
    }
    core::commit_mapping(replayed, *app, mapping);
  }
  gate.expect(live.approx_equals(replayed),
              label + ": recommitted survivors do not reproduce the books");
}

// --------------------------------------------------------------- helpers --

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- summarise --

void summarise(const RunConfig& config, const PhaseRecord& record,
               RunResult& result) {
  // Read before the merged log below allocates its histograms.
  const double peak_mb = peak_rss_mb();
  ClientLog all(0, false, Clock::now(), 0);
  // Clients' digests are combined in client order.
  result.digest = 1469598103934665603ull;
  for (const ClientLog& log : record.logs) {
    all.merge(log);
    result.digest = result.digest * 1099511628211ull ^ log.digest();
    result.digest_calls += log.digested();
  }
  result.attempted = all.calls;
  result.failed = all.failed;

  const Counters& d = record.counters;
  const auto n = static_cast<double>(all.admissions);
  const auto admitted = static_cast<double>(all.admitted);
  const auto calls = d.steps.calls;
  const double lookups = static_cast<double>(d.shape_hits + d.shape_misses);
  const bool library = lookups > 0;
  Metrics& m = result.metrics;
  // End to end.
  m.emplace_back("admit_p50_us", all.admit_us.percentile(50));
  m.emplace_back("admit_p99_us", all.admit_us.percentile(99));
  m.emplace_back("admits_per_s", ratio(n, record.timed_s));
  m.emplace_back("reject_share", ratio(n - admitted, n));
  m.emplace_back("energy_nj_per_symbol",
                 ratio(all.energy_nj, admitted));
  m.emplace_back("setup_s", median(record.setup_s));
  m.emplace_back("peak_rss_mb", peak_mb);
  // core: the traced mapper's tallies, per map() call.
  m.emplace_back("core.map_calls", static_cast<double>(calls));
  m.emplace_back("core.map_us_mean", mean_us(d.steps.map_ns, calls));
  m.emplace_back("core.rounds_per_call",
                 ratio(static_cast<double>(d.steps.rounds),
                       static_cast<double>(calls)));
  m.emplace_back("core.map_success_share",
                 ratio(static_cast<double>(d.steps.successes),
                       static_cast<double>(calls)));
  m.emplace_back("core.round_setup_us_mean", mean_us(d.steps.setup_ns, calls));
  for (int s = 0; s < 4; ++s) {
    m.emplace_back("core.step" + std::to_string(s + 1) + "_us_mean",
                   mean_us(d.steps.step_ns[s], calls));
  }
  // verify / csdf.
  m.emplace_back("verify.hit_share",
                 ratio(static_cast<double>(d.verify.hits),
                       static_cast<double>(d.verify.lookups)));
  m.emplace_back("verify.simulations",
                 static_cast<double>(d.verify.simulations));
  m.emplace_back("verify.evicted_while_hot",
                 static_cast<double>(d.verify.evicted_while_hot));
  m.emplace_back("csdf.events_simulated",
                 static_cast<double>(d.verify.events_simulated));
  m.emplace_back("csdf.events_per_simulation",
                 ratio(static_cast<double>(d.verify.events_simulated),
                       static_cast<double>(d.verify.simulations)));
  // noc.
  m.emplace_back("noc.route_cache_hit_share",
                 ratio(static_cast<double>(d.routes.hits),
                       static_cast<double>(d.routes.lookups)));
  m.emplace_back("noc.route_fallbacks",
                 static_cast<double>(d.routes.fallbacks));
  // shapes (zero where the library is off).
  m.emplace_back("shapes.hit_share",
                 ratio(static_cast<double>(d.shape_hits), lookups));
  m.emplace_back("shapes.anchor_probes_per_lookup",
                 ratio(static_cast<double>(d.shape_probes), lookups));
  m.emplace_back("shapes.hit_admit_us_p50",
                 library ? all.hit_us.percentile(50) : 0.0);
  m.emplace_back("shapes.miss_admit_us_p50",
                 library ? all.miss_us.percentile(50) : 0.0);
  // runtime manager.
  m.emplace_back("runtime.non_mapper_us_p50", all.non_mapper_us.percentile(50));
  m.emplace_back("runtime.snapshot_us_per_admit", ratio(d.snapshot_us, n));
  m.emplace_back("runtime.validate_us_per_admit", ratio(d.validate_us, n));
  m.emplace_back("runtime.commit_us_per_admit", ratio(d.commit_us, n));
  m.emplace_back("runtime.gated_commit_share",
                 ratio(static_cast<double>(d.gated_commits),
                       static_cast<double>(d.gated_commits +
                                           d.validated_commits)));
  m.emplace_back("runtime.attempts_per_request",
                 ratio(static_cast<double>(all.attempts), n));
  m.emplace_back("runtime.conflict_rejects", static_cast<double>(all.conflicts));
  m.emplace_back("runtime.release_us_p50", all.release_us.percentile(50));
  // fleet, defrag and mode switch (zero outside the fleet workload).
  m.emplace_back("fleet.spill_share",
                 ratio(static_cast<double>(d.fleet.spills),
                       static_cast<double>(d.fleet.dispatches)));
  m.emplace_back("fleet.spill_failures",
                 static_cast<double>(d.fleet.spill_failures));
  m.emplace_back("fleet.max_imbalance", d.fleet.max_imbalance);
  m.emplace_back("fleet.defrag_tick_us_p50", all.tick_us.percentile(50));
  m.emplace_back("fleet.defrag_migrations", static_cast<double>(d.migrations));
  m.emplace_back("fleet.switch_p50_us", all.switch_us.percentile(50));
  m.emplace_back("fleet.switch_p95_us", all.switch_us.percentile(95));
  m.emplace_back("fleet.switch_in_place_share",
                 ratio(static_cast<double>(all.switches_in_place),
                       static_cast<double>(all.switches)));
  m.emplace_back("fleet.switch_replan_us_p50", all.replan_us.percentile(50));
  m.emplace_back("fleet.switch_rolled_back", static_cast<double>(all.switches_rolled_back));

  if (config.traced && !config.spans_path.empty()) {
    write_spans(config.spans_path, record);
  }
}

}  // namespace admitbench
