#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/channel_routing.hpp"
#include "core/feasibility.hpp"
#include "core/implementation_selection.hpp"
#include "core/mapper.hpp"
#include "core/tile_assignment.hpp"
#include "energy/model.hpp"
#include "noc/route_cache.hpp"
#include "verify/engine.hpp"

namespace rtsm::core {

/// Configuration of the four-step run-time spatial mapper.
struct MapperConfig {
  Step1Options step1;
  Step2Options step2;
  Step3Options step3;
  FeasibilityOptions step4;

  /// Skip the step-2 local search (ablation X3: greedy first-fit only).
  bool run_step2 = true;

  /// Skip the dataflow feasibility check (only for experiments that measure
  /// placement quality in isolation; such mappings are adherent, not
  /// verified feasible).
  bool run_step4 = true;

  /// Maximum refinement rounds driven by feedback (Section 3's iterative
  /// refinement).
  std::uint32_t max_refinement_rounds = 8;

  energy::EnergyModel energy;

  /// Shared step-4 verification engine. When null and cache_verification
  /// is true the mapper builds a private engine at construction, so every
  /// map() call of this instance — each refinement round, each admission
  /// of a runtime manager holding it — shares one cache. Pass an engine
  /// explicitly to share it across mappers. Thread-safe.
  std::shared_ptr<verify::Engine> engine;

  /// Disable step-4 caching/warm-starting entirely (every verification
  /// recomputes from scratch; results are identical, only slower).
  bool cache_verification = true;

  /// Shared NoC route cache for step 3. When null and cache_routes is true
  /// the mapper builds a private cache at construction (same idiom as
  /// `engine`); pass one explicitly to share it across mappers. Cached
  /// routes are validated against the live load on every lookup, so
  /// results are bit-identical to uncached routing. Thread-safe.
  std::shared_ptr<noc::RouteCache> route_cache;

  /// Disable step-3 route caching entirely (every route searched from
  /// scratch; results are identical, only slower).
  bool cache_routes = true;
};

/// The paper's run-time spatial mapping algorithm: hierarchical search with
/// iterative refinement. Each round runs the four pipeline stages over a
/// shared MappingContext; when a stage fails it emits feedback constraints
/// and the driver re-runs from step 1 with the reduced search space, up to
/// max_refinement_rounds.
class SpatialMapper final : public Mapper {
 public:
  explicit SpatialMapper(MapperConfig config = {});

  [[nodiscard]] const MapperConfig& config() const { return config_; }

  [[nodiscard]] std::string name() const override { return "spatial"; }
  [[nodiscard]] std::string describe() const override;

  using Mapper::map;
  [[nodiscard]] MappingResult map(const kpn::Application& app,
                                  const ResourceState& base) const override;

  /// Cancellation-aware map(): the token is polled before every refinement
  /// round, so a cancelled call returns within one round.
  [[nodiscard]] MappingResult map(const kpn::Application& app,
                                  const ResourceState& base,
                                  const CancelToken* cancel) const override;

  /// Books each round's placement after step 3 and releases it when that
  /// round's step 4 fails. A refused booking ends the call unsuccessful.
  /// Without step 4 (run_step4 = false) nothing is booked.
  [[nodiscard]] MappingResult map_booked(
      const kpn::Application& app, const ResourceState& base,
      PlanBooking& booking) const override;

  [[nodiscard]] std::shared_ptr<verify::Engine> verification_engine()
      const override {
    return config_.engine;
  }

  [[nodiscard]] std::shared_ptr<noc::RouteCache> route_cache() const override {
    return config_.route_cache;
  }

 private:
  /// The refinement loop behind every map() entry point; @p cancel and
  /// @p booking may be null.
  [[nodiscard]] MappingResult run(const kpn::Application& app,
                                  const ResourceState& base,
                                  const CancelToken* cancel,
                                  PlanBooking* booking) const;

  MapperConfig config_;
};

}  // namespace rtsm::core
