#include "runtime/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "io/json.hpp"
#include "io/serialize.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rtsm::runtime {

// ---------------------------------------------------------------- schedule

Schedule make_mode_churn_schedule(const ScheduleParams& params,
                                  std::uint64_t seed) {
  require(params.waves > 0, "schedule needs at least one wave");
  require(params.lifetime_min >= 1 &&
              params.lifetime_min <= params.lifetime_max,
          "schedule lifetime range is invalid");
  Rng rng(seed);
  Schedule schedule;
  schedule.waves = params.waves;

  /// Per-slot bookkeeping while generating (mode churn needs to know
  /// which hiperlan slots are alive in a wave and their current mode).
  struct Slot {
    std::uint32_t depart_wave = 0;  // 0 = never departs
    bool hiperlan = false;
    workload::Hiperlan2Mode mode = workload::Hiperlan2Mode::QPSK;
  };
  std::vector<Slot> slots;

  // Wave-major generation keeps the event order deterministic: per wave,
  // departures first, then switches of live hiperlan slots, then the
  // wave's arrivals.
  for (std::uint32_t wave = 0; wave < params.waves; ++wave) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].depart_wave != 0 && slots[s].depart_wave == wave) {
        ScenarioEvent ev;
        ev.kind = ScenarioEvent::Kind::Depart;
        ev.wave = wave;
        ev.slot = s;
        schedule.events.push_back(std::move(ev));
      }
    }

    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      const bool alive =
          slot.depart_wave == 0 || wave < slot.depart_wave;
      if (!slot.hiperlan || !alive) continue;
      if (!rng.bernoulli(params.switch_prob)) continue;
      // A switch to a uniformly drawn *different* demapping mode.
      const auto& modes = workload::kHiperlan2Modes;
      workload::Hiperlan2Mode next = slot.mode;
      while (next == slot.mode) {
        next = modes[rng.pick_index(modes.size())].mode;
      }
      slot.mode = next;
      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::SwitchMode;
      ev.wave = wave;
      ev.slot = s;
      ev.next = std::make_shared<kpn::Application>(
          workload::hiperlan2_mode_variant(next, params.hiperlan));
      ev.deadline_us = params.switch_deadline_us;
      schedule.events.push_back(std::move(ev));
    }

    for (std::uint32_t a = 0; a < params.arrivals_per_wave; ++a) {
      Slot slot;
      const std::uint32_t lifetime = static_cast<std::uint32_t>(
          rng.uniform_int(params.lifetime_min, params.lifetime_max));
      if (wave + lifetime < params.waves) slot.depart_wave = wave + lifetime;

      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::Arrive;
      ev.wave = wave;
      ev.slot = slots.size();
      std::string name = "s";
      name += std::to_string(slots.size());
      if (rng.bernoulli(params.hiperlan_fraction)) {
        slot.hiperlan = true;
        const auto& modes = workload::kHiperlan2Modes;
        slot.mode = modes[rng.pick_index(modes.size())].mode;
        ev.app = std::make_shared<kpn::Application>(
            workload::hiperlan2_mode_variant(slot.mode, params.hiperlan));
      } else if (rng.bernoulli(params.big_fraction)) {
        ev.app = std::make_shared<kpn::Application>(
            workload::make_synthetic_app(rng, params.big_app, name));
      } else {
        ev.app = std::make_shared<kpn::Application>(
            workload::make_synthetic_app(rng, params.small_app, name));
      }
      if (rng.bernoulli(params.high_priority_fraction)) {
        ev.cls.priority = params.high_priority;
        ev.cls.preemptible = false;
      }
      slots.push_back(slot);
      schedule.events.push_back(std::move(ev));
    }
  }
  schedule.slots = slots.size();
  return schedule;
}

// --------------------------------------------------------- record / replay

namespace {

/// %.6f, matching the library's other JSON writers.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

const char* kind_name(ScenarioEvent::Kind kind) {
  switch (kind) {
    case ScenarioEvent::Kind::Arrive: return "arrive";
    case ScenarioEvent::Kind::Depart: return "depart";
    case ScenarioEvent::Kind::SwitchMode: return "switch";
  }
  return "?";
}

ScenarioEvent::Kind kind_of(const std::string& name) {
  if (name == "arrive") return ScenarioEvent::Kind::Arrive;
  if (name == "depart") return ScenarioEvent::Kind::Depart;
  if (name == "switch") return ScenarioEvent::Kind::SwitchMode;
  throw Error("unknown scenario event kind \"" + name + "\"");
}

/// Deduplicating application pool: graphs are stored once in the
/// io::save_application text format (loss-free) and events reference
/// them by index — the HIPERLAN/2 mode variants repeat heavily.
class AppPool {
 public:
  std::size_t index_of(const kpn::Application& app) {
    const std::string text = io::save_application(app);
    const auto it = by_text_.find(text);
    if (it != by_text_.end()) return it->second;
    const std::size_t index = texts_.size();
    texts_.push_back(text);
    by_text_.emplace(texts_.back(), index);
    return index;
  }

  [[nodiscard]] const std::vector<std::string>& texts() const {
    return texts_;
  }

 private:
  std::vector<std::string> texts_;
  std::unordered_map<std::string, std::size_t> by_text_;
};

void write_schedule(std::ostringstream& out, const Schedule& schedule) {
  AppPool pool;
  struct Ref {
    std::size_t app = 0;
    std::size_t next = 0;
  };
  std::vector<Ref> refs(schedule.events.size());
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const ScenarioEvent& ev = schedule.events[i];
    if (ev.app != nullptr) refs[i].app = pool.index_of(*ev.app);
    if (ev.next != nullptr) refs[i].next = pool.index_of(*ev.next);
  }

  out << "\"waves\":" << schedule.waves << ",\"slots\":" << schedule.slots
      << ",\"apps\":[";
  for (std::size_t i = 0; i < pool.texts().size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << io::json_escape(pool.texts()[i]) << "\"";
  }
  out << "],\"events\":[";
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const ScenarioEvent& ev = schedule.events[i];
    if (i > 0) out << ",";
    out << "{\"kind\":\"" << kind_name(ev.kind) << "\",\"wave\":" << ev.wave
        << ",\"slot\":" << ev.slot;
    if (ev.app != nullptr) out << ",\"app\":" << refs[i].app;
    if (ev.next != nullptr) out << ",\"next\":" << refs[i].next;
    if (ev.cls.priority != 0) out << ",\"priority\":" << ev.cls.priority;
    if (!ev.cls.preemptible) out << ",\"preemptible\":false";
    if (ev.deadline_us > 0.0) {
      out << ",\"deadline_us\":" << num(ev.deadline_us);
    }
    out << "}";
  }
  out << "]";
}

Schedule read_schedule(const io::JsonValue& doc) {
  Schedule schedule;
  schedule.waves = static_cast<std::uint32_t>(doc.at("waves").as_uint());
  schedule.slots = static_cast<std::size_t>(doc.at("slots").as_uint());

  // One shared graph per pool entry: events that referenced one
  // application object share one again after the round trip.
  std::vector<std::shared_ptr<const kpn::Application>> apps;
  for (const io::JsonValue& text : doc.at("apps").as_array()) {
    apps.push_back(std::make_shared<kpn::Application>(
        io::load_application(text.as_string())));
  }
  auto app_at = [&](const io::JsonValue& index) {
    const std::uint64_t i = index.as_uint();
    require(i < apps.size(), [&] {
      return "scenario event references app " + std::to_string(i) + " of " +
             std::to_string(apps.size());
    });
    return apps[static_cast<std::size_t>(i)];
  };

  for (const io::JsonValue& item : doc.at("events").as_array()) {
    ScenarioEvent ev;
    ev.kind = kind_of(item.at("kind").as_string());
    ev.wave = static_cast<std::uint32_t>(item.at("wave").as_uint());
    ev.slot = static_cast<std::size_t>(item.at("slot").as_uint());
    if (item.has("app")) ev.app = app_at(item.at("app"));
    if (item.has("next")) ev.next = app_at(item.at("next"));
    if (item.has("priority")) {
      ev.cls.priority =
          static_cast<std::int32_t>(item.at("priority").as_double());
    }
    if (item.has("preemptible")) {
      ev.cls.preemptible = item.at("preemptible").as_bool();
    }
    if (item.has("deadline_us")) {
      ev.deadline_us = item.at("deadline_us").as_double();
    }
    schedule.events.push_back(std::move(ev));
  }
  return schedule;
}

void write_outcomes(std::ostringstream& out,
                    const std::vector<WaveOutcome>& outcomes) {
  out << "\"outcomes\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const WaveOutcome& w = outcomes[i];
    if (i > 0) out << ",";
    out << "{\"wave\":" << w.wave << ",\"running\":" << w.running
        << ",\"admitted\":" << w.admitted << ",\"rejected\":" << w.rejected
        << ",\"deadline_misses\":" << w.deadline_misses
        << ",\"departures\":" << w.departures
        << ",\"skipped_events\":" << w.skipped_events
        << ",\"switches_in_place\":" << w.switches_in_place
        << ",\"switches_replanned\":" << w.switches_replanned
        << ",\"switches_rolled_back\":" << w.switches_rolled_back
        << ",\"switch_deadline_misses\":" << w.switch_deadline_misses
        << ",\"naive_switch_losses\":" << w.naive_switch_losses << "}";
  }
  out << "]";
}

std::vector<WaveOutcome> read_outcomes(const io::JsonValue& array) {
  std::vector<WaveOutcome> outcomes;
  for (const io::JsonValue& item : array.as_array()) {
    WaveOutcome w;
    w.wave = static_cast<std::uint32_t>(item.at("wave").as_uint());
    w.running = item.at("running").as_uint();
    w.admitted = item.at("admitted").as_uint();
    w.rejected = item.at("rejected").as_uint();
    w.deadline_misses = item.at("deadline_misses").as_uint();
    w.departures = item.at("departures").as_uint();
    w.skipped_events = item.at("skipped_events").as_uint();
    w.switches_in_place = item.at("switches_in_place").as_uint();
    w.switches_replanned = item.at("switches_replanned").as_uint();
    w.switches_rolled_back = item.at("switches_rolled_back").as_uint();
    w.switch_deadline_misses = item.at("switch_deadline_misses").as_uint();
    w.naive_switch_losses = item.at("naive_switch_losses").as_uint();
    outcomes.push_back(w);
  }
  return outcomes;
}

constexpr const char* kTraceFormat = "rtsm-scenario-trace-v1";

}  // namespace

std::string schedule_to_json(const Schedule& schedule) {
  std::ostringstream out;
  out << "{\"format\":\"" << kTraceFormat << "\",";
  write_schedule(out, schedule);
  out << "}";
  return out.str();
}

Schedule schedule_from_json(const std::string& text) {
  const io::JsonValue doc = io::parse_json(text);
  require(doc.at("format").as_string() == kTraceFormat, [&] {
    return "not a scenario trace: format \"" + doc.at("format").as_string() +
           "\"";
  });
  return read_schedule(doc);
}

std::string trace_to_json(const ScenarioTrace& trace) {
  std::ostringstream out;
  out << "{\"format\":\"" << kTraceFormat << "\",\"seed\":" << trace.seed
      << ",";
  write_schedule(out, trace.schedule);
  out << ",";
  write_outcomes(out, trace.outcomes);
  out << "}";
  return out.str();
}

ScenarioTrace trace_from_json(const std::string& text) {
  const io::JsonValue doc = io::parse_json(text);
  require(doc.at("format").as_string() == kTraceFormat, [&] {
    return "not a scenario trace: format \"" + doc.at("format").as_string() +
           "\"";
  });
  ScenarioTrace trace;
  if (doc.has("seed")) trace.seed = doc.at("seed").as_uint();
  trace.schedule = read_schedule(doc);
  if (doc.has("outcomes")) trace.outcomes = read_outcomes(doc.at("outcomes"));
  return trace;
}

bool outcomes_identical(const std::vector<WaveOutcome>& a,
                        const std::vector<WaveOutcome>& b) {
  return a == b;
}

// ----------------------------------------------------------------- targets

bool ScenarioTarget::replay_matches() const {
  const core::ResourceState live = state_copy();
  core::ResourceState replayed(live.platform());
  for (const AppId id : running_ids()) {
    core::commit_mapping(replayed, *app_of(id), mapping_of(id));
  }
  return live == replayed;
}

std::vector<SettledOutcome> SerialTarget::correlate(
    std::vector<AdmitOutcome> outcomes,
    std::vector<SettledOutcome> settled) {
  for (AdmitOutcome& outcome : outcomes) {
    SettledOutcome s;
    const auto it = tickets_.find(outcome.request);
    if (it != tickets_.end()) {
      s.ticket = it->second;
      tickets_.erase(it);
    }
    s.outcome = std::move(outcome);
    settled.push_back(std::move(s));
  }
  return settled;
}

std::vector<SettledOutcome> SerialTarget::settle() {
  return correlate(manager_->drain(), {});
}

std::vector<SettledOutcome> SerialTarget::finish() {
  return correlate(manager_->reject_waiting(), settle());
}

bool SerialTarget::is_running(AppId id) const {
  const std::vector<AppId> ids = manager_->running_ids();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

std::uint64_t ConcurrentTarget::submit(
    std::shared_ptr<const kpn::Application> app, double deadline_us,
    RequestClass cls) {
  std::future<AdmitOutcome> future =
      manager_->submit(std::move(app), deadline_us, cls);
  pending_.emplace_back(++next_ticket_, std::move(future));
  return next_ticket_;
}

std::vector<SettledOutcome> ConcurrentTarget::settle() {
  // With workers == 0 nobody else drains the queue; with a pool the
  // caller just helps out for a moment.
  manager_->pump();
  manager_->wait_idle();
  std::vector<SettledOutcome> settled;
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->second.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      settled.push_back({it->first, it->second.get()});
      it = pending_.erase(it);
    } else {
      ++it;  // parked: resolves after a later release or at finish()
    }
  }
  return settled;
}

std::vector<SettledOutcome> ConcurrentTarget::finish() {
  manager_->pump();
  manager_->wait_idle();
  manager_->reject_waiting();
  return settle();
}

bool ConcurrentTarget::is_running(AppId id) const {
  const std::vector<AppId> ids = manager_->running_ids();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// ------------------------------------------------------------------ driver

ScenarioDriver::ScenarioDriver(ScenarioTarget& target, Schedule schedule,
                               ScenarioOptions options)
    : target_(&target),
      schedule_(std::move(schedule)),
      options_(options) {}

void ScenarioDriver::handle_outcomes(
    const std::vector<SettledOutcome>& outcomes) {
  for (const SettledOutcome& settled : outcomes) {
    const AdmitOutcome& outcome = settled.outcome;
    const auto it = pending_slot_.find(settled.ticket);
    if (it == pending_slot_.end()) {
      // A request the driver never submitted: a preemption victim that
      // re-entered the stream. Its instance (when re-admitted) runs
      // detached from slot tracking until the scenario ends.
      ++stats_.reparked_outcomes;
      continue;
    }
    if (outcome.status == AdmitStatus::Waiting) {
      // Still parked: keep the ticket mapping (and any naive-retry tag)
      // so the eventual resolution still lands on its slot.
      continue;
    }
    const std::size_t slot = it->second;
    pending_slot_.erase(it);
    const bool naive_retry = naive_retry_.erase(settled.ticket) > 0;
    switch (outcome.status) {
      case AdmitStatus::Admitted:
        if (!naive_retry) ++stats_.admitted;
        live_[slot] = outcome.app_id;
        break;
      case AdmitStatus::Rejected:
        if (naive_retry) {
          ++stats_.naive_switch_losses;  // the released mode is gone
        } else {
          ++stats_.rejected;
        }
        break;
      case AdmitStatus::DeadlineMiss:
        if (naive_retry) {
          ++stats_.naive_switch_losses;
        } else {
          ++stats_.deadline_misses;
        }
        break;
      case AdmitStatus::Waiting:
        break;  // unreachable: handled before the ticket was erased
    }
  }
}

ScenarioStats ScenarioDriver::run() {
  std::size_t next_event = 0;
  for (std::uint32_t wave = 0; wave < schedule_.waves; ++wave) {
    while (next_event < schedule_.events.size() &&
           schedule_.events[next_event].wave == wave) {
      const ScenarioEvent& ev = schedule_.events[next_event];
      ++next_event;

      switch (ev.kind) {
        case ScenarioEvent::Kind::Arrive: {
          ++stats_.arrivals;
          slot_cls_[ev.slot] = ev.cls;
          const std::uint64_t ticket =
              target_->submit(ev.app, ev.deadline_us, ev.cls);
          pending_slot_[ticket] = ev.slot;
          break;
        }
        case ScenarioEvent::Kind::Depart: {
          const auto live = live_.find(ev.slot);
          if (live == live_.end() || !target_->is_running(live->second)) {
            ++stats_.skipped_events;  // rejected earlier or preempted
            if (live != live_.end()) live_.erase(live);
            break;
          }
          target_->release(live->second);
          live_.erase(live);
          ++stats_.departures;
          break;
        }
        case ScenarioEvent::Kind::SwitchMode: {
          const auto live = live_.find(ev.slot);
          if (live == live_.end() || !target_->is_running(live->second)) {
            ++stats_.skipped_events;
            if (live != live_.end()) live_.erase(live);
            break;
          }
          ++stats_.switches;
          const auto start = std::chrono::steady_clock::now();
          if (options_.naive_switch) {
            // The baseline: release, then hope the readmission fits. No
            // rollback exists — a failed readmission loses the stream.
            // The settle runs inside the timed window so the naive
            // latency includes the full replan, like switch_mode's does.
            target_->release(live->second);
            const std::uint64_t ticket =
                target_->submit(ev.next, 0.0, slot_cls_[ev.slot]);
            live_.erase(live);
            pending_slot_[ticket] = ev.slot;
            naive_retry_.insert(ticket);
            handle_outcomes(target_->settle());
            stats_.switch_latency.record(elapsed_us(start));
          } else {
            const SwitchOutcome out =
                target_->switch_mode(live->second, ev.next, ev.deadline_us);
            stats_.switch_latency.record(elapsed_us(start));
            switch (out.status) {
              case SwitchStatus::InPlace:
                ++stats_.switches_in_place;
                break;
              case SwitchStatus::Replanned:
                ++stats_.switches_replanned;
                break;
              case SwitchStatus::RolledBack:
                ++stats_.switches_rolled_back;
                break;
              case SwitchStatus::DeadlineMiss:
                // The old mode keeps running — the slot stays live.
                ++stats_.switch_deadline_misses;
                break;
              case SwitchStatus::UnknownId:
                ++stats_.skipped_events;
                live_.erase(live);
                break;
            }
          }
          break;
        }
      }
    }

    handle_outcomes(target_->settle());
    if (options_.oracle_every_wave && !target_->replay_matches()) {
      stats_.oracle_ok = false;
    }
    record_wave(wave);
  }

  handle_outcomes(target_->finish());
  if (!target_->replay_matches()) stats_.oracle_ok = false;
  // One post-finish entry (parked requests just resolved) closes the log.
  record_wave(schedule_.waves);
  return stats_;
}

void ScenarioDriver::record_wave(std::uint32_t wave) {
  WaveOutcome out;
  out.wave = wave;
  out.running = static_cast<std::uint64_t>(live_.size());
  out.admitted = stats_.admitted;
  out.rejected = stats_.rejected;
  out.deadline_misses = stats_.deadline_misses;
  out.departures = stats_.departures;
  out.skipped_events = stats_.skipped_events;
  out.switches_in_place = stats_.switches_in_place;
  out.switches_replanned = stats_.switches_replanned;
  out.switches_rolled_back = stats_.switches_rolled_back;
  out.switch_deadline_misses = stats_.switch_deadline_misses;
  out.naive_switch_losses = stats_.naive_switch_losses;
  stats_.wave_log.push_back(out);
}

}  // namespace rtsm::runtime
