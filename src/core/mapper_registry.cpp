#include "core/mapper_registry.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rtsm::core {

bool MapperRegistry::add(const std::string& name, std::string description,
                         Factory factory) {
  require(!name.empty(), "mapper registration with empty name");
  require(static_cast<bool>(factory),
          [&] { return "mapper '" + name + "' registered without a factory"; });
  if (find(name) != nullptr) {
    // First registration wins; the collision is recorded, not thrown — a
    // registry assembled from several sources should surface the problem
    // without losing the entries that registered cleanly.
    errors_.push_back("duplicate mapper name '" + name + "'");
    return false;
  }
  entries_.push_back(Entry{name, std::move(description), std::move(factory)});
  return true;
}

bool MapperRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::unique_ptr<Mapper> MapperRegistry::create(const std::string& name) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    throw Error("unknown mapper '" + name + "'; registered: " +
                join(names(), ", "));
  }
  return entry->factory();
}

const std::string& MapperRegistry::description(const std::string& name) const {
  const Entry* entry = find(name);
  require(entry != nullptr, [&] { return "unknown mapper '" + name + "'"; });
  return entry->description;
}

std::vector<std::string> MapperRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

const MapperRegistry::Entry* MapperRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace rtsm::core
