#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "audit/mutex.hpp"
#include "verify/expansion_cache.hpp"
#include "verify/signature.hpp"

namespace rtsm::verify {

/// Tuning of the verification engine.
struct EngineOptions {
  /// Bound of the outcome cache (least-recently-used eviction beyond it)
  /// and of the warm-hint map (first-in first-out eviction).
  std::size_t max_entries = 1024;

  /// Memoize outcomes by structural signature.
  bool cache = true;

  /// Seed misses with the last feasible capacities of the same application
  /// skeleton (see BufferSizingConfig::warm_start).
  bool warm_start = true;
};

/// Counters of the verification engine (value snapshot; thread-safe read).
struct EngineStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  /// Evicted cache entries that had served at least one hit (recurring
  /// signatures falling out of the LRU — a "cache too small" signal).
  std::uint64_t evicted_while_hot = 0;

  /// Misses that started from a warm hint.
  std::uint64_t warm_started = 0;

  /// Simulations / firings of the simulated schedules run by misses.
  std::uint64_t simulations = 0;
  std::uint64_t events_simulated = 0;

  /// Firings of events_simulated the periodic fast-forward skipped.
  std::uint64_t events_skipped = 0;

  /// Sizing verdicts of misses implied by monotone dominance instead of
  /// simulated (see csdf::BufferSizingConfig::warm_start).
  std::uint64_t dominance_skips = 0;

  /// Simulations / firings the cached computation of each hit originally
  /// cost — a (conservative) lower bound on the work every hit saved:
  /// when the cached entry was itself warm-started, a fresh cold
  /// computation would have cost more than what is credited here.
  std::uint64_t simulations_saved = 0;
  std::uint64_t events_saved = 0;

  /// Occupancy when the snapshot was taken: cached outcomes and stored
  /// warm hints (each bounded by EngineOptions::max_entries).
  std::uint64_t cache_entries = 0;
  std::uint64_t warm_hints = 0;

  [[nodiscard]] double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// The step-4 verification pipeline without a cache or warm start: expand
/// the mapped application into its CSDF graph, size the consumer buffers
/// under the period constraint, and derive blame feedback on failure.
/// @p warm_hint optionally seeds the sizing (never changes the result).
[[nodiscard]] VerificationOutcome compute_verification(
    const kpn::Application& app, const arch::Platform& platform,
    const core::Mapping& mapping, const SizingKey& key,
    const std::vector<std::uint32_t>* warm_hint = nullptr);

/// Reusable, thread-safe step-4 verification engine: a structural-signature
/// cache over compute_verification() plus per-application warm-start
/// hints. One engine is shared by every refinement round of a mapper, by
/// every admission of a runtime manager, and by the inner loops of the
/// annealing / exhaustive baselines; concurrent verify() calls are safe
/// (racing misses both compute, first insert wins).
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Verifies the structural mapping, serving from the cache when the
  /// signature matches a previous verification.
  [[nodiscard]] std::shared_ptr<const VerificationOutcome> verify(
      const kpn::Application& app, const arch::Platform& platform,
      const core::Mapping& mapping, const SizingKey& key);

  [[nodiscard]] EngineStats stats() const;

  /// Drops all cached outcomes and warm hints (stats are kept).
  void clear();

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  ExpansionCache cache_;

  /// Guards stats_ and warm_hints_. stats() reads the expansion cache's
  /// counters while holding it, so it ranks just below kExpansionCache.
  mutable audit::Mutex mutex_{audit::LockRank::kVerifyEngine,
                              "verify.engine"};
  EngineStats stats_ RTSM_GUARDED_BY(mutex_);
  /// Last feasible buffer capacities per application skeleton, bounded at
  /// options_.max_entries like the cache but evicted first-in first-out
  /// (the cache itself is LRU), so a stream of distinct applications
  /// cannot grow the engine without limit.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> warm_hints_
      RTSM_GUARDED_BY(mutex_);
  std::deque<std::uint64_t> warm_hint_order_ RTSM_GUARDED_BY(mutex_);
};

/// Shared constructor tail of every mapper that runs step 4: returns
/// @p engine unchanged when set, a fresh private engine when @p enabled,
/// and null otherwise.
[[nodiscard]] inline std::shared_ptr<Engine> ensure_engine(
    bool enabled, std::shared_ptr<Engine> engine) {
  if (enabled && engine == nullptr) return std::make_shared<Engine>();
  return engine;
}

}  // namespace rtsm::verify
