#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/resource_state.hpp"
#include "kpn/application.hpp"

namespace rtsm::audit {

/// One live (application, mapping) pair a manager currently accounts for.
/// The auditor replays these through core::commit_mapping to rebuild the
/// books from first principles.
struct LiveApp {
  std::shared_ptr<const kpn::Application> app;
  const core::Mapping* mapping = nullptr;
};

/// Outcome of one conservation audit. ok == issues.empty().
struct CheckResult {
  bool ok = true;
  /// One human-readable line per detected discrepancy (tile id, quantity,
  /// live vs. replayed value).
  std::vector<std::string> issues;
};

/// Recomputes what @p live *should* book — per-tile utilisation, memory,
/// process slots and per-link load — by committing every app in
/// @p running into a fresh ResourceState over the same platform, through
/// the very mutators the incremental accounting uses. Compares the replay
/// against @p live exactly, quantity by quantity (the books are integers,
/// so the commit order cannot show). Also checks the journal window
/// invariant (the ring covers at most journal-capacity trailing versions)
/// and that no tile is booked beyond its memory.
/// @p where tags the calling boundary ("commit", "release", ...) in the
/// issue messages.
[[nodiscard]] CheckResult check_state(const core::ResourceState& live,
                                      const std::vector<LiveApp>& running,
                                      const std::string& where);

/// check_state + report: routes every issue to the audit violation
/// handler as one Kind::StateMismatch (default: print and abort). The
/// RTSM_AUDIT boundary hooks in the managers call this.
void audit_state(const core::ResourceState& live,
                 const std::vector<LiveApp>& running,
                 const std::string& where);

}  // namespace rtsm::audit
