#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/mutex.hpp"
#include "core/feedback.hpp"
#include "verify/signature.hpp"

namespace rtsm::verify {

/// The mapping-independent part of a step-4 verification: everything the
/// CSDF expansion + buffer sizing derive from the structural mapping alone.
/// The state-dependent parts — do the buffers fit the consuming tiles'
/// residual memory, does the latency meet this application's bound — are
/// recomputed by run_step4 on every call, so one cached outcome serves any
/// number of admissions, refinement rounds and annealing candidates.
struct VerificationOutcome {
  /// True when the target period is sustainable with finite buffers.
  bool feasible = false;

  /// Minimal consumer-side buffer capacity per channel (parallel to the
  /// application's channel ids). Empty when !feasible.
  std::vector<std::uint32_t> buffer_tokens;

  /// Sustained iteration period with the chosen buffers, ps.
  std::uint64_t achieved_period_ps = 0;

  /// Worst source-start to sink-completion time of one symbol, ps.
  std::uint64_t latency_ps = 0;

  /// Sizing failure explanation when !feasible.
  std::string failure;

  /// Blame feedback for the refinement loop when !feasible (the slowest
  /// implementation on its tile), when derivable.
  std::optional<core::FeedbackConstraint> feedback;

  /// Cost of computing this outcome: simulations run and firings executed.
  /// On a cache hit the engine credits these as saved.
  std::uint64_t simulations = 0;
  std::uint64_t events_simulated = 0;

  /// Firings of events_simulated skipped by the simulator's periodic
  /// fast-forward rather than executed.
  std::uint64_t events_skipped = 0;

  /// Sizing verdicts the monotone dominance oracle implied instead of a
  /// simulation (csdf::BufferSizingResult::dominance_skips).
  std::uint64_t dominance_skips = 0;

  /// True when the computation was warm-started from a previous feasible
  /// solution's capacities.
  bool warm_started = false;
};

/// Thread-safe memo of the step-4 expansion pipeline, keyed by the
/// structural MappingSignature and shared across admissions, refinement
/// rounds and search candidates. Entries hold the sized outcome rather
/// than the raw ExpandedGraph: the signature pins every input of the
/// sizing as well, so the outcome subsumes the expansion and nothing ever
/// needs to re-simulate a cached graph. Bounded LRU eviction (hits renew
/// an entry's lease) keeps the footprint flat under endless admission
/// churn while protecting the signatures that recur — a recurring
/// skeleton's candidates would be the first out of a FIFO.
class ExpansionCache {
 public:
  explicit ExpansionCache(std::size_t max_entries = 1024);

  /// Cached outcome of @p signature, or nullptr. A hit moves the entry to
  /// the front of the recency order.
  [[nodiscard]] std::shared_ptr<const VerificationOutcome> find(
      const MappingSignature& signature) const;

  /// Inserts (first writer wins on a race; later identical computations
  /// are simply dropped). Evicts the least-recently-used entry beyond
  /// max_entries. The signature is moved into the map and stored once.
  void insert(MappingSignature signature,
              std::shared_ptr<const VerificationOutcome> outcome);

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] std::uint64_t evictions() const;

  /// Evicted entries that had served at least one hit — a rough "the
  /// cache is too small" signal (cold one-shot signatures are expected to
  /// fall out; hot ones are not).
  [[nodiscard]] std::uint64_t evicted_while_hot() const;

 private:
  struct Entry {
    std::shared_ptr<const VerificationOutcome> outcome;
    /// Position in lru_ (front = most recent). Stable under splice.
    std::list<const MappingSignature*>::iterator where;
    std::uint64_t hits = 0;
  };

  const std::size_t max_entries_;
  /// Taken under the engine lock by Engine::stats() — hence its rank just
  /// above kVerifyEngine; never held across a simulation.
  mutable audit::Mutex mutex_{audit::LockRank::kExpansionCache,
                              "verify.expansion_cache"};
  /// mutable: a (logically const) lookup updates recency + hit counts.
  mutable std::unordered_map<MappingSignature, Entry, SignatureHash> map_
      RTSM_GUARDED_BY(mutex_);
  /// Recency order, most recent first; find() splices hits to the front.
  /// Points at the map's node keys, which stay put across rehashes, so
  /// each signature is held once.
  mutable std::list<const MappingSignature*> lru_ RTSM_GUARDED_BY(mutex_);
  std::uint64_t evictions_ RTSM_GUARDED_BY(mutex_) = 0;
  std::uint64_t evicted_while_hot_ RTSM_GUARDED_BY(mutex_) = 0;
};

}  // namespace rtsm::verify
