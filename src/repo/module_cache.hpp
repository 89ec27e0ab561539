// ConGrid -- the executing peer's module cache.
//
// Paper, section 3.3: "This dynamic download of code ... allows the peer to
// only host code that is necessary", and "a resource-constrained device may
// also decide to selectively download and release executable modules based
// on dependencies inherent within the connectivity graph". The cache is a
// byte-budgeted LRU with pinning: modules in use (and their dependency
// closure) are pinned and cannot be evicted; everything else is released
// LRU-first when space is needed. Experiment E6 sweeps the byte budget.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "cas/store.hpp"
#include "obs/obs.hpp"
#include "repo/artifact.hpp"

namespace cg::repo {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_fetched = 0;   ///< sum of inserted artifact sizes
  std::uint64_t rejected_too_large = 0;
  std::uint64_t rejected_pinned = 0;  ///< replace attempt on an in-use module
  std::uint64_t backing_hits = 0;  ///< misses satisfied by the backing store

  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// Byte-budgeted LRU module cache with pin counts. Keyed by module name:
/// inserting a different version of a cached name replaces it (the paper's
/// "request from the owner" rule means the owner's version always wins) --
/// unless the resident copy is pinned, i.e. a job is executing it, in
/// which case the insert is rejected and the refresh happens at the next
/// deploy after the job releases it.
class ModuleCache {
 public:
  explicit ModuleCache(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Attach a content-addressed store behind the cache. Inserts write
  /// through to it (ref cas::ref_key("module/<name>") -> digest of the
  /// encoded artifact) and lookup misses fall back to it, so re-deploys after a
  /// restart hit the disk tier instead of the network. Pass nullptr to
  /// detach. The store is borrowed, not owned, and must outlive the cache.
  void set_backing_store(cas::ContentStore* store) { backing_ = store; }
  cas::ContentStore* backing_store() const { return backing_; }

  /// Look up a module; a hit refreshes recency. Records hit/miss stats.
  /// On an in-memory miss, consults the backing store (when attached) and
  /// promotes a decoded copy into the cache -- counted as a miss plus a
  /// backing_hit, since the caller avoided a network fetch but not a load.
  std::optional<ModuleArtifact> lookup(const std::string& name);

  /// artifact_digest() of the resident copy of `name`, computed at most
  /// once per resident copy (on write-through, else on the first call);
  /// nullopt when absent. No stats, no recency.
  std::optional<cas::Digest> digest(const std::string& name) const;

  /// True without touching stats or recency (introspection).
  bool contains(const std::string& name) const {
    return entries_.contains(name);
  }

  /// Insert a fetched artifact, evicting unpinned LRU entries as needed.
  /// Returns false (and does not insert) when the artifact cannot fit even
  /// after evicting everything unpinned.
  bool insert(const ModuleArtifact& a);

  /// Pin / unpin by name. Pinned entries are never evicted. Pinning an
  /// absent name is an error (std::out_of_range).
  void pin(const std::string& name);
  void unpin(const std::string& name);
  bool is_pinned(const std::string& name) const;

  /// Explicitly release a module (no-op when pinned or absent). Returns
  /// true when something was dropped.
  bool release(const std::string& name);

  std::size_t resident_bytes() const { return resident_bytes_; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t entry_count() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Bind metrics: "<scope>.cache.*" counters plus a resident-bytes gauge.
  void set_obs(obs::Registry& registry, std::string_view scope = {});

 private:
  struct Obs {
    obs::CounterRef hits, misses, insertions, evictions, bytes_fetched,
        backing_hits;
    obs::GaugeRef resident_bytes;
  };
  struct Entry {
    ModuleArtifact artifact;
    /// artifact_digest(artifact), filled on first need (see digest()).
    mutable std::optional<cas::Digest> digest;
    int pin_count = 0;
    std::list<std::string>::iterator lru_it;  ///< position in lru_
  };

  void touch(Entry& e, const std::string& name);
  bool make_room(std::size_t need);
  void erase_entry(const std::string& name);
  /// `digest` is known only for bytes promoted from the backing store;
  /// without one the insert writes through and keeps the store's digest.
  bool insert_internal(const ModuleArtifact& a,
                       std::optional<cas::Digest> digest);

  cas::ContentStore* backing_ = nullptr;
  std::size_t budget_bytes_;
  std::size_t resident_bytes_ = 0;
  Obs obs_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  CacheStats stats_;
};

}  // namespace cg::repo
