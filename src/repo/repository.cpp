#include "repo/repository.hpp"

#include <set>
#include <stdexcept>

namespace cg::repo {

void ModuleRepository::put(ModuleArtifact a) {
  cas::Digest digest = artifact_digest(a);
  std::string key = a.key();
  store_[std::move(key)] = Entry{std::move(a), digest};
}

std::optional<ModuleArtifact> ModuleRepository::get(
    const std::string& name, const std::string& version) const {
  auto it = store_.find(name + "@" + version);
  if (it == store_.end()) return std::nullopt;
  return it->second.artifact;
}

const ModuleRepository::Entry* ModuleRepository::latest_entry(
    const std::string& name) const {
  const Entry* best = nullptr;
  for (const auto& [key, e] : store_) {
    if (e.artifact.name != name) continue;
    if (!best || e.artifact.version > best->artifact.version) best = &e;
  }
  return best;
}

std::optional<ModuleArtifact> ModuleRepository::latest(
    const std::string& name) const {
  if (const Entry* e = latest_entry(name)) return e->artifact;
  return std::nullopt;
}

std::vector<std::string> ModuleRepository::module_names() const {
  std::set<std::string> names;
  for (const auto& [key, s] : store_) names.insert(s.artifact.name);
  return {names.begin(), names.end()};
}

std::vector<ModuleArtifact> ModuleRepository::closure(
    const std::string& name, const std::string& version) const {
  std::vector<ModuleArtifact> out;
  std::set<std::string> visited;

  // Depth-first, dependencies before dependents.
  auto visit = [&](auto&& self, const std::string& n,
                   const std::string& v) -> void {
    const std::string key = v.empty() ? n : n + "@" + v;
    if (visited.contains(key)) return;
    visited.insert(key);

    std::optional<ModuleArtifact> a =
        v.empty() ? latest(n) : get(n, v);
    if (!a) {
      throw std::out_of_range("module not in repository: " + key);
    }
    for (const auto& d : a->deps) self(self, d, "");
    out.push_back(std::move(*a));
  };
  visit(visit, name, version);
  return out;
}

std::size_t ModuleRepository::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [key, s] : store_) n += s.artifact.size_bytes();
  return n;
}

}  // namespace cg::repo
