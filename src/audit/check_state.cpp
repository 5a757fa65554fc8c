#include "audit/check_state.hpp"

#include <cstdint>
#include <string>

#include "audit/lockdep.hpp"
#include "core/mapper.hpp"
#include "util/error.hpp"

namespace rtsm::audit {

namespace {

void add_issue(CheckResult& result, const std::string& where,
               std::string detail) {
  result.ok = false;
  result.issues.push_back("[" + where + "] " + std::move(detail));
}

}  // namespace

CheckResult check_state(const core::ResourceState& live,
                        const std::vector<LiveApp>& running,
                        const std::string& where) {
  CheckResult result;
  const arch::Platform& platform = live.platform();

  // Rebuild the books from first principles: an empty state plus one
  // commit per live application, through the same mutators the managers
  // use. The books are exact integers, so the summation order of the live
  // history cannot show: any difference is drift.
  core::ResourceState replayed(platform);
  for (const LiveApp& run : running) {
    if (run.app == nullptr || run.mapping == nullptr) {
      add_issue(result, where, "running set contains a null app or mapping");
      return result;
    }
    try {
      core::commit_mapping(replayed, *run.app, *run.mapping);
    } catch (const Error& e) {
      // The replay over-committing a tile or link means the live books
      // under-count what is actually reserved (the commit of this very
      // mapping succeeded against them earlier).
      add_issue(result, where,
                "replaying live mappings overflows the platform (live "
                "accounting under-counts): " +
                    std::string(e.what()));
      return result;
    }
  }

  // One issue per quantity that differs (utilisation, load: fixed point).
  const auto compare = [&](const char* entity, std::uint32_t i,
                           const char* quantity, std::uint64_t live_value,
                           std::uint64_t replay_value) {
    if (live_value == replay_value) return;
    add_issue(result, where,
              std::string(entity) + " " + std::to_string(i) + " " +
                  quantity + " drift: live " + std::to_string(live_value) +
                  " vs replayed " + std::to_string(replay_value));
  };
  for (std::uint32_t i = 0; i < platform.tile_count(); ++i) {
    const TileId tile{i};
    compare("tile", i, "utilisation", live.utilization_units(tile),
            replayed.utilization_units(tile));
    compare("tile", i, "memory", live.memory_used(tile),
            replayed.memory_used(tile));
    compare("tile", i, "process-count", live.processes_hosted(tile),
            replayed.processes_hosted(tile));
    if (live.memory_used(tile) > platform.tile(tile).memory_bytes) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " books " +
                    std::to_string(live.memory_used(tile)) +
                    " bytes beyond its capacity " +
                    std::to_string(platform.tile(tile).memory_bytes));
    }
  }
  for (std::uint32_t i = 0; i < platform.link_count(); ++i) {
    compare("link", i, "load", live.links().reserved_units(LinkId{i}),
            replayed.links().reserved_units(LinkId{i}));
  }

  // Journal-window consistency: the ring holds the entries taking the
  // state from journal_start_version() to version(), so the window may
  // never exceed the ring capacity or run ahead of the state.
  if (live.journal_enabled()) {
    const std::uint64_t version = live.version();
    const std::uint64_t start = live.journal_start_version();
    if (start > version) {
      add_issue(result, where,
                "journal window starts at version " + std::to_string(start) +
                    " ahead of state version " + std::to_string(version));
    } else if (version - start > live.journal_capacity()) {
      add_issue(result, where,
                "journal window [" + std::to_string(start) + ", " +
                    std::to_string(version) + ") wider than its ring (" +
                    std::to_string(live.journal_capacity()) + " entries)");
    }
  }

  return result;
}

void audit_state(const core::ResourceState& live,
                 const std::vector<LiveApp>& running,
                 const std::string& where) {
  const CheckResult result = check_state(live, running, where);
  if (result.ok) return;
  std::string message =
      "ResourceState conservation check failed at '" + where + "':";
  for (const std::string& issue : result.issues) {
    message += "\n  " + issue;
  }
  report_violation({Violation::Kind::StateMismatch, std::move(message)});
}

}  // namespace rtsm::audit
