#pragma once

#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapping.hpp"
#include "csdf/simulator.hpp"
#include "kpn/application.hpp"

namespace rtsm::verify {

/// The sizing-side parameters that, together with the structural mapping,
/// determine the step-4 verification outcome.
struct SizingKey {
  std::uint64_t target_period_ps = 0;
  std::uint32_t capacity_limit = 1u << 16;
  csdf::SimulationConfig simulation;
};

/// Structural fingerprint of everything the step-4 pipeline (CSDF
/// expansion + self-timed buffer sizing) consumes: per process the selected
/// implementation's content (name, phase WCETs, port rates) and the clock
/// of its tile; per channel the endpoints, token size and the exact NoC
/// route; the platform's router latency and hop-buffer depth; and the
/// SizingKey. Two mappings with equal signatures provably produce the same
/// VerificationOutcome — notably, moving a process to a *different tile of
/// the same clock* without changing any route keeps the signature equal.
///
/// Serialized with the shared word serializer (util/words.hpp): names
/// enter as their exact bytes, the buffer is sized to the exact word
/// count, and the full word vector is stored and compared, so equality is
/// exact (no hash-collision risk). The precomputed word-at-a-time hash
/// only buckets the unordered_map.
class MappingSignature {
 public:
  /// Builds the signature of a placed and routed mapping.
  [[nodiscard]] static MappingSignature of(const kpn::Application& app,
                                           const arch::Platform& platform,
                                           const core::Mapping& mapping,
                                           const SizingKey& key);

  [[nodiscard]] bool operator==(const MappingSignature& other) const {
    return hash_ == other.hash_ && words_ == other.words_;
  }

  [[nodiscard]] std::size_t hash() const { return hash_; }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t hash_ = 0;
};

struct SignatureHash {
  std::size_t operator()(const MappingSignature& s) const { return s.hash(); }
};

/// Fingerprint of an application's *skeleton* (name, structure, QoS) —
/// independent of any mapping. Keys the engine's warm-start hints, so
/// refinement rounds and re-maps of the same application share the last
/// feasible buffer capacities even when the placement changed.
[[nodiscard]] std::uint64_t app_skeleton_hash(const kpn::Application& app);

}  // namespace rtsm::verify
