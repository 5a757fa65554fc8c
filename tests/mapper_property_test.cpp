#include <gtest/gtest.h>

#include "core/criteria.hpp"
#include "core/spatial_mapper.hpp"
#include "workload/synthetic.hpp"

namespace rtsm::core {
namespace {

using workload::SyntheticAppParams;
using workload::SyntheticPlatformParams;

struct Instance {
  kpn::Application app;
  arch::Platform platform;
};

Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  SyntheticPlatformParams pp;
  pp.width = 4;
  pp.height = 4;
  pp.type_counts = {{"ARM", 4}, {"DSP", 4}};
  pp.process_slots = 2;
  arch::Platform platform =
      workload::make_synthetic_platform(rng, pp, "rand" + std::to_string(seed));

  SyntheticAppParams ap;
  ap.process_count = 3 + static_cast<std::uint32_t>(seed % 4);
  ap.topology = seed % 2 == 0 ? workload::Topology::Chain
                              : workload::Topology::ForkJoin;
  ap.tile_types = {"ARM", "DSP"};
  ap.impls_min = 1;
  ap.impls_max = 2;
  kpn::Application app =
      workload::make_synthetic_app(rng, ap, "app" + std::to_string(seed));
  return {std::move(app), std::move(platform)};
}

class MapperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperProperty, SuccessfulMappingsAreAdequateAdherentAndFeasible) {
  const Instance inst = random_instance(GetParam());
  const SpatialMapper mapper;
  const auto result = mapper.map(inst.app, inst.platform);
  if (!result.success) {
    // Random instances may legitimately not fit; nothing further to check.
    SUCCEED();
    return;
  }
  const auto adequate = check_adequate(inst.app, inst.platform, result.mapping);
  EXPECT_TRUE(adequate.ok) << adequate.reason;
  const auto adherent = check_adherent(inst.app, inst.platform, result.mapping);
  EXPECT_TRUE(adherent.ok) << adherent.reason;
  // The reported period respects the QoS constraint.
  EXPECT_LE(result.achieved_period_ps,
            static_cast<std::uint64_t>(inst.app.qos().symbol_period_ns) * 1000);
}

TEST_P(MapperProperty, DeterministicForSameInstance) {
  const Instance inst = random_instance(GetParam());
  const SpatialMapper mapper;
  const auto r1 = mapper.map(inst.app, inst.platform);
  const auto r2 = mapper.map(inst.app, inst.platform);
  EXPECT_EQ(r1.success, r2.success);
  if (r1.success) {
    EXPECT_DOUBLE_EQ(r1.energy_nj_per_symbol, r2.energy_nj_per_symbol);
    for (const ProcessId pid : inst.app.process_ids()) {
      EXPECT_EQ(r1.mapping.tile_of(pid), r2.mapping.tile_of(pid));
    }
  }
}

TEST_P(MapperProperty, LocalSearchNeverHurtsEnergy) {
  const Instance inst = random_instance(GetParam());
  MapperConfig with;
  MapperConfig without;
  without.run_step2 = false;
  const auto refined = SpatialMapper(with).map(inst.app, inst.platform);
  const auto greedy = SpatialMapper(without).map(inst.app, inst.platform);
  if (refined.success && greedy.success) {
    EXPECT_LE(refined.energy_nj_per_symbol,
              greedy.energy_nj_per_symbol + 1e-9);
  }
}

TEST_P(MapperProperty, CommitReleaseRestoresStateExactly) {
  const Instance inst = random_instance(GetParam());
  const SpatialMapper mapper;
  const auto result = mapper.map(inst.app, inst.platform);
  if (!result.success) {
    SUCCEED();
    return;
  }
  ResourceState state(inst.platform);
  commit_mapping(state, inst.app, result.mapping);
  release_mapping(state, inst.app, result.mapping);
  // The books are exact: a release undoes its commit to the last unit.
  EXPECT_TRUE(state == ResourceState(inst.platform));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperProperty,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace rtsm::core
