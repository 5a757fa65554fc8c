// Exactness oracle of the paper's four-step mapper: a seeded admission
// churn on a 16x16 ARM/MONTIUM mesh (under each step-2 cost model) and the
// seven HIPERLAN/2 modes on a 6x6 mesh, digested over everything a mapping
// result decides. The digest constants were taken from the unoptimized
// pipeline; any speed-up of the mapper (lazy contract messages, reuse of
// sizing simulations, the simulator's periodic fast-forward and event
// queue, step 2's cached candidate costs) must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapper.hpp"
#include "core/resource_state.hpp"
#include "core/spatial_mapper.hpp"
#include "util/rng.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace rtsm {
namespace {

/// FNV-1a over the fields of mapping results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }

  /// Success, failure text, and for a success every decision: tile and
  /// implementation per process, route and buffer per channel, the
  /// verified period and latency, and the energy's bits.
  void add(const kpn::Application& app, const core::MappingResult& r) {
    add(static_cast<std::uint64_t>(r.success));
    add(r.failure);
    if (!r.success) return;
    for (const ProcessId p : app.process_ids()) {
      add(static_cast<std::uint64_t>(r.mapping.tile_of(p).value()));
      add(static_cast<std::uint64_t>(r.mapping.impl_of(p).value()));
    }
    for (const ChannelId c : app.channel_ids()) {
      const auto& path = r.mapping.path(c);
      add(static_cast<std::uint64_t>(path.has_value()));
      if (path) {
        add(static_cast<std::uint64_t>(path->src_tile.value()));
        add(static_cast<std::uint64_t>(path->dst_tile.value()));
        add(static_cast<std::uint64_t>(path->links.size()));
        for (const LinkId l : path->links) {
          add(static_cast<std::uint64_t>(l.value()));
        }
      }
      add(static_cast<std::uint64_t>(r.mapping.buffer_tokens(c).value_or(0)));
    }
    add(r.achieved_period_ps);
    add(r.latency_ps);
    add(r.energy_nj_per_symbol);
  }

  /// The bits of every step-2 cost a mapping run computed: per refinement
  /// round the initial and final cost and each iteration's before/after.
  /// Decisions rarely depend on the last bit of a fractional cost, so this
  /// is what pins the order in which step 2 adds up per-channel costs.
  void add_step2_costs(const core::MappingResult& r) {
    for (const auto& round : r.trace.rounds) {
      add(round.step2.initial_cost);
      add(round.step2.final_cost);
      for (const core::Step2Record& rec : round.step2.records) {
        add(rec.cost_before);
        add(rec.cost_after);
      }
    }
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// 16x16 mesh: IO corners, the rest alternating quad-slot ARM and
/// single-context MONTIUM tiles.
arch::Platform mesh16() {
  constexpr std::uint32_t n = 16;
  arch::Platform p("exactness 16x16", n, n);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("SRC", io, 0, 0, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, n - 1, n - 1, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
      if ((x + y) % 2 == 0) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/4);
      } else {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

/// 6x6 mesh: 10 hex-slot ARM and 10 single-context MONTIUM tiles with the
/// HIPERLAN/2 IO fixtures.
arch::Platform mesh6() {
  arch::Platform p("exactness 6x6", 6, 6);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("A/D", io, 0, 2, 64 * 1024, /*process_slots=*/8);
  p.add_tile("Sink", io, 5, 3, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 6 && arms + montiums < 20; ++y) {
    for (std::uint32_t x = 0; x < 6 && arms + montiums < 20; ++x) {
      if ((x == 0 && y == 2) || (x == 5 && y == 3)) continue;
      if ((x + y) % 2 == 0 && arms < 10) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/6);
      } else if (montiums < 10) {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

using Live = std::vector<std::pair<std::shared_ptr<kpn::Application>,
                                   core::Mapping>>;

/// Maps @p app against @p state, digests the result (and, when given, its
/// step-2 costs) and commits a success.
void admit(const core::Mapper& mapper, core::ResourceState& state,
           std::shared_ptr<kpn::Application> app, Live& live, Digest& digest,
           std::size_t& admitted, Digest* step2_costs = nullptr) {
  const core::MappingResult r = mapper.map(*app, state);
  digest.add(*app, r);
  if (step2_costs != nullptr) step2_costs->add_step2_costs(r);
  if (!r.success) return;
  ++admitted;
  core::commit_mapping(state, *app, r.mapping);
  live.emplace_back(std::move(app), r.mapping);
}

struct ChurnDigests {
  std::size_t admitted = 0;
  std::uint64_t decisions = 0;
  std::uint64_t step2_costs = 0;
};

/// Seeded synthetic arrivals with random releases under step-2 cost model
/// @p model: the live set is capped, so later arrivals are mapped around the
/// fragments earlier ones left.
ChurnDigests synthetic_churn_on_16x16(core::CommCostModel model) {
  const arch::Platform platform = mesh16();
  core::MapperConfig config;
  config.step2.cost_model = model;
  const core::SpatialMapper mapper(config);
  core::ResourceState state(platform);
  Rng rng(20240607);
  Live live;
  Digest digest;
  Digest step2_costs;
  std::size_t admitted = 0;
  constexpr std::size_t kArrivals = 48;
  constexpr std::size_t kLiveCap = 14;
  for (std::size_t i = 0; i < kArrivals; ++i) {
    while (live.size() >= kLiveCap) {
      const std::size_t victim = rng.pick_index(live.size());
      core::release_mapping(state, *live[victim].first, live[victim].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    workload::SyntheticAppParams params;
    params.process_count = static_cast<std::uint32_t>(rng.uniform_int(3, 8));
    params.with_fixtures = false;
    params.tile_types = {"ARM", "MONTIUM"};
    if (rng.bernoulli(0.3)) params.topology = workload::Topology::ForkJoin;
    // Tight periods and heavy processes make some arrivals fail steps 2-4.
    params.period_ns = static_cast<std::uint64_t>(rng.uniform_int(1200, 4000));
    params.max_preferred_utilization = 0.7;
    auto app = std::make_shared<kpn::Application>(workload::make_synthetic_app(
        rng, params, "churn-" + std::to_string(i)));
    admit(mapper, state, std::move(app), live, digest, admitted,
          &step2_costs);
  }
  return {admitted, digest.value(), step2_costs.value()};
}

TEST(MapperExactness, SyntheticChurnOn16x16MeshIsBitIdentical) {
  const ChurnDigests d = synthetic_churn_on_16x16(core::CommCostModel::HopCount);
  EXPECT_EQ(d.admitted, 41u);
  EXPECT_EQ(d.decisions, 0x0729d0030b653370ull);
  EXPECT_EQ(d.step2_costs, 0xa35a1fcff3345431ull);
}

// Hop counts and token-weighted hops are small integers, so any summation
// order gives the same step-2 cost. Energy-weighted costs are fractional:
// their step-2 cost digest pins the order in which step 2 adds up its
// per-channel costs.
TEST(MapperExactness, TokenWeightedChurnOn16x16MeshIsBitIdentical) {
  const ChurnDigests d =
      synthetic_churn_on_16x16(core::CommCostModel::TokenWeighted);
  EXPECT_EQ(d.admitted, 41u);
  EXPECT_EQ(d.decisions, 0xaa3c773c1c13adadull);
  EXPECT_EQ(d.step2_costs, 0x0e2bf682fee0b61dull);
}

TEST(MapperExactness, EnergyWeightedChurnOn16x16MeshIsBitIdentical) {
  const ChurnDigests d =
      synthetic_churn_on_16x16(core::CommCostModel::EnergyWeighted);
  EXPECT_EQ(d.admitted, 41u);
  EXPECT_EQ(d.decisions, 0xdd78a94aef77cc36ull);
  EXPECT_EQ(d.step2_costs, 0xeec6a01f65ba957full);
}

// Every HIPERLAN/2 mode, twice: first onto an empty mesh one after the
// other (each sees the previous admissions), then again with all of them
// still running, which exercises the rejection texts too.
TEST(MapperExactness, Hiperlan2ModesOn6x6MeshAreBitIdentical) {
  const arch::Platform platform = mesh6();
  const core::SpatialMapper mapper;
  core::ResourceState state(platform);
  Live live;
  Digest digest;
  std::size_t admitted = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const workload::ModeInfo& mode : workload::kHiperlan2Modes) {
      auto app = std::make_shared<kpn::Application>(
          workload::hiperlan2_mode_variant(mode.mode));
      admit(mapper, state, std::move(app), live, digest, admitted);
    }
  }
  EXPECT_EQ(admitted, 3u);
  EXPECT_EQ(digest.value(), 0xa74f65c35122a778ull);
}

}  // namespace
}  // namespace rtsm
