#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/mapper.hpp"
#include "core/spatial_mapper.hpp"

namespace admitbench {

/// Work and time of mapper calls: map() calls, refinement rounds, and the
/// wall time of the whole call, of the per-round set-up (the residual-state
/// copy and fresh mapping) and of each of the paper's four steps.
struct StepTally {
  std::uint64_t calls = 0;
  std::uint64_t successes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t map_ns = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t step_ns[4] = {0, 0, 0, 0};

  void add(const StepTally& other);
  [[nodiscard]] StepTally minus(const StepTally& earlier) const;
};

/// The spatial mapper's round loop, replayed from the benchmark over the
/// public rtsm::core::run_step1 ... run_step4 with a timer around each
/// call. It builds its verification engine and route cache exactly as
/// SpatialMapper does for a default MapperConfig, so a manager holding it
/// admits, rejects and books exactly what it would with the real mapper;
/// the traced run's outcome digest checks that.
///
/// Tallies are kept per application object, so a client can take the
/// steps its own request caused: take(app) when requests run concurrently
/// on distinct application objects, take_all() when a single client drives
/// every mapper call.
class StepTimedMapper final : public rtsm::core::Mapper {
 public:
  StepTimedMapper();

  [[nodiscard]] std::string name() const override { return "spatial"; }
  [[nodiscard]] std::string describe() const override;

  using rtsm::core::Mapper::map;
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app,
      const rtsm::core::ResourceState& base) const override;
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app,
      const rtsm::core::ResourceState& base,
      const rtsm::core::CancelToken* cancel) const override;

  [[nodiscard]] std::shared_ptr<rtsm::verify::Engine> verification_engine()
      const override {
    return config_.engine;
  }
  [[nodiscard]] std::shared_ptr<rtsm::noc::RouteCache> route_cache()
      const override {
    return config_.route_cache;
  }

  /// Everything tallied since construction.
  [[nodiscard]] StepTally totals() const;

  /// Removes and returns the tally of calls on @p app since its last take.
  StepTally take(const rtsm::kpn::Application* app);

  /// Removes and returns the tally of every call since the last take.
  StepTally take_all();

 private:
  void record(const rtsm::kpn::Application& app, const StepTally& call) const;

  rtsm::core::MapperConfig config_;
  mutable std::mutex mutex_;
  mutable StepTally totals_;
  mutable std::unordered_map<const rtsm::kpn::Application*, StepTally>
      pending_;
};

}  // namespace admitbench
