#include "core/resource_state.hpp"

#include <atomic>

#include "util/error.hpp"

namespace rtsm::core {

namespace {

/// Process-wide identity source; never reused, so stale sync tokens can be
/// told apart from a new state at a recycled address.
std::uint64_t next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResourceState::ResourceState(const arch::Platform& platform)
    : platform_(&platform),
      utilization_(platform.tile_count(), 0),
      memory_used_(platform.tile_count(), 0),
      processes_(platform.tile_count(), 0),
      links_(platform),
      uid_(next_uid()) {
  links_.set_listener(this);
}

ResourceState::ResourceState(const ResourceState& other)
    : platform_(other.platform_),
      utilization_(other.utilization_),
      memory_used_(other.memory_used_),
      processes_(other.processes_),
      links_(other.links_),  // copy drops other's listener
      uid_(next_uid()),
      synced_from_(&other),
      synced_uid_(other.uid_),
      synced_version_(other.version_) {
  links_.set_listener(this);
}

ResourceState& ResourceState::operator=(const ResourceState& other) {
  if (this == &other) return *this;
  platform_ = other.platform_;
  utilization_ = other.utilization_;
  memory_used_ = other.memory_used_;
  processes_ = other.processes_;
  links_ = other.links_;  // LinkLoad assignment keeps our own listener
  // The value jumped arbitrarily: our old journal entries no longer
  // describe transitions of this content, so observers synced with *us*
  // must fall back to a full copy.
  ++version_;
  journal_start_version_ = version_;
  synced_from_ = &other;
  synced_uid_ = other.uid_;
  synced_version_ = other.version_;
  return *this;
}

double ResourceState::utilization(TileId tile) const {
  return utilization_of(utilization_units(tile));
}

UtilUnits ResourceState::utilization_units(TileId tile) const {
  check_tile(tile);
  return utilization_[tile.value()];
}

std::uint64_t ResourceState::memory_used(TileId tile) const {
  check_tile(tile);
  return memory_used_[tile.value()];
}

std::uint64_t ResourceState::memory_free(TileId tile) const {
  check_tile(tile);
  const std::uint64_t total = platform_->tile(tile).memory_bytes;
  const std::uint64_t used = memory_used_[tile.value()];
  return used >= total ? 0 : total - used;
}

std::uint32_t ResourceState::processes_hosted(TileId tile) const {
  check_tile(tile);
  return processes_[tile.value()];
}

bool ResourceState::tile_fits(TileId tile, double extra_utilization,
                              std::uint64_t extra_memory,
                              std::uint32_t extra_processes) const {
  check_tile(tile);
  const UtilUnits units = quantize_utilization(extra_utilization);
  if (utilization_[tile.value()] + units > kFullTile) return false;
  if (processes_[tile.value()] + extra_processes >
      platform_->tile(tile).process_slots) {
    return false;
  }
  return extra_memory <= memory_free(tile);
}

void ResourceState::reserve_tile(TileId tile, double utilization,
                                 std::uint64_t memory,
                                 std::uint32_t processes) {
  if (!tile_fits(tile, utilization, memory, processes)) {
    // Branch before formatting: building the message eagerly would cost a
    // heap allocation per reserve on the journal-replay hot path.
    throw Error("tile over-reservation on '" + platform_->tile(tile).name +
                "'");
  }
  const UtilUnits units = quantize_utilization(utilization);
  utilization_[tile.value()] += units;
  memory_used_[tile.value()] += memory;
  processes_[tile.value()] += processes;
  note_mutation(
      {JournalEntry::Op::ReserveTile, tile.value(), units, memory, processes});
}

void ResourceState::release_tile(TileId tile, double utilization,
                                 std::uint64_t memory,
                                 std::uint32_t processes) {
  check_tile(tile);
  const UtilUnits units = quantize_utilization(utilization);
  const std::size_t i = tile.value();
  if (units > utilization_[i] || memory > memory_used_[i] ||
      processes > processes_[i]) {
    throw Error("tile over-release on '" + platform_->tile(tile).name + "'");
  }
  utilization_[i] -= units;
  memory_used_[i] -= memory;
  processes_[i] -= processes;
  note_mutation(
      {JournalEntry::Op::ReleaseTile, tile.value(), units, memory, processes});
}

void ResourceState::saturate_tile(TileId tile) {
  check_tile(tile);
  utilization_[tile.value()] = kFullTile;
  memory_used_[tile.value()] = platform_->tile(tile).memory_bytes;
  processes_[tile.value()] = platform_->tile(tile).process_slots;
  note_mutation({JournalEntry::Op::SaturateTile, tile.value(), 0, 0, 0});
}

bool ResourceState::operator==(const ResourceState& other) const {
  return platform_ == other.platform_ &&
         utilization_ == other.utilization_ &&
         memory_used_ == other.memory_used_ &&
         processes_ == other.processes_ && links_ == other.links_;
}

std::size_t ResourceState::idle_tile_count() const {
  std::size_t idle = 0;
  for (const UtilUnits u : utilization_) {
    if (u == 0) ++idle;
  }
  return idle;
}

void ResourceState::enable_journal(std::size_t capacity) {
  require(capacity > 0, "ResourceState: journal capacity must be positive");
  journal_.assign(capacity, JournalEntry{});
  journal_capacity_ = capacity;
  journal_start_version_ = version_;  // journal starts out empty
}

void ResourceState::note_mutation(const JournalEntry& entry) {
  if (journal_capacity_ > 0) {
    journal_[version_ % journal_capacity_] = entry;
    if (version_ - journal_start_version_ >= journal_capacity_) {
      // The ring wrapped: the slot just written held the oldest entry.
      journal_start_version_ = version_ + 1 - journal_capacity_;
    }
  }
  ++version_;
  synced_from_ = nullptr;
}

void ResourceState::apply(const JournalEntry& entry) {
  switch (entry.op) {
    // A booked utilisation is at most kFullTile units, so utilization_of()
    // is exact and quantizes back to the journaled units.
    case JournalEntry::Op::ReserveTile:
      reserve_tile(TileId{entry.index}, utilization_of(entry.amount),
                   entry.memory, entry.processes);
      break;
    case JournalEntry::Op::ReleaseTile:
      release_tile(TileId{entry.index}, utilization_of(entry.amount),
                   entry.memory, entry.processes);
      break;
    case JournalEntry::Op::SaturateTile:
      saturate_tile(TileId{entry.index});
      break;
    case JournalEntry::Op::LinkReserve:
      links_.reserve_units(LinkId{entry.index}, entry.amount);
      break;
    case JournalEntry::Op::LinkRelease:
      links_.release_units(LinkId{entry.index}, entry.amount);
      break;
  }
}

void ResourceState::refresh_snapshot_into(ResourceState& scratch) const {
  require(&scratch != this, "refresh_snapshot_into: scratch is the source");
  const bool delta_ok = scratch.synced_from_ == this &&
                        scratch.synced_uid_ == uid_ &&
                        journal_capacity_ > 0 &&
                        scratch.synced_version_ >= journal_start_version_ &&
                        scratch.synced_version_ <= version_;
  if (!delta_ok) {
    scratch = *this;  // operator= re-arms the sync token
    ++refresh_stats_.full_copies;
    return;
  }
  // Replay [scratch.synced_version_, version_) through the same mutators
  // that produced the entries, with the exact amounts they booked. By
  // induction the scratch tracks the source bit-for-bit: identical
  // pre-state, identical arguments, identical code path. Replay clears the
  // scratch's token, so re-arm it afterwards.
  for (std::uint64_t v = scratch.synced_version_; v < version_; ++v) {
    scratch.apply(journal_[v % journal_capacity_]);
    ++refresh_stats_.entries_replayed;
  }
  scratch.synced_from_ = this;
  scratch.synced_uid_ = uid_;
  scratch.synced_version_ = version_;
  ++refresh_stats_.delta_refreshes;
}

void ResourceState::on_link_reserve(LinkId link, RateUnits demand) {
  note_mutation({JournalEntry::Op::LinkReserve, link.value(), demand, 0, 0});
}

void ResourceState::on_link_release(LinkId link, RateUnits demand) {
  note_mutation({JournalEntry::Op::LinkRelease, link.value(), demand, 0, 0});
}

void ResourceState::check_tile(TileId tile) const {
  require(tile.valid() && tile.value() < utilization_.size(),
          "ResourceState: tile id out of range");
}

double impl_time_per_symbol_ns(const kpn::Application& app, ProcessId process,
                               ImplementationId impl, std::uint64_t clock_hz) {
  require(clock_hz > 0, "impl_time_per_symbol_ns: zero clock");
  const kpn::Implementation& im = app.implementation(process, impl);
  const std::uint64_t cycles =
      app.cycles_per_symbol(process, impl) * im.cycle_wcet_cc();
  return static_cast<double>(cycles) * 1e9 / static_cast<double>(clock_hz);
}

double impl_utilization(const kpn::Application& app, ProcessId process,
                        ImplementationId impl, std::uint64_t clock_hz) {
  return impl_time_per_symbol_ns(app, process, impl, clock_hz) /
         static_cast<double>(app.qos().symbol_period_ns);
}

}  // namespace rtsm::core
