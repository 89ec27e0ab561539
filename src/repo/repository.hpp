// ConGrid -- authoritative module repository.
//
// The "owner" side of the on-demand code model: the peer that publishes a
// workflow also serves the executable modules it references, so every
// execution fetches the owner's current version (paper 3.3 -- this is the
// version-consistency argument).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "repo/artifact.hpp"

namespace cg::repo {

class ModuleRepository {
 public:
  /// A stored artifact with the digest put() computed for it.
  struct Entry {
    ModuleArtifact artifact;
    cas::Digest digest;  ///< artifact_digest(artifact)
  };

  /// Store (or replace) an artifact under name@version.
  void put(ModuleArtifact a);

  /// Exact lookup; nullopt when absent.
  std::optional<ModuleArtifact> get(const std::string& name,
                                    const std::string& version) const;

  /// Highest version for `name` by lexicographic version compare (versions
  /// here are dotted decimals of equal arity; good enough for the model).
  std::optional<ModuleArtifact> latest(const std::string& name) const;

  /// latest() without the copy: the entry stays owned by the repository
  /// and is valid until the next put(). Null when absent.
  const Entry* latest_entry(const std::string& name) const;

  /// Names of all stored modules (deduplicated).
  std::vector<std::string> module_names() const;

  /// The artifact plus its full transitive dependency closure, in
  /// dependency-first order. Throws std::out_of_range when a dependency is
  /// not in the repository (broken publish).
  std::vector<ModuleArtifact> closure(const std::string& name,
                                      const std::string& version) const;

  std::size_t size() const { return store_.size(); }
  std::size_t total_bytes() const;

 private:
  std::map<std::string, Entry> store_;  // by key()
};

}  // namespace cg::repo
