#include "repo/module_cache.hpp"

#include <stdexcept>

#include "serial/reader.hpp"

namespace cg::repo {

void ModuleCache::set_obs(obs::Registry& registry, std::string_view scope) {
  obs_.hits = registry.counter(obs::scoped(scope, "cache.hits"));
  obs_.misses = registry.counter(obs::scoped(scope, "cache.misses"));
  obs_.insertions = registry.counter(obs::scoped(scope, "cache.insertions"));
  obs_.evictions = registry.counter(obs::scoped(scope, "cache.evictions"));
  obs_.bytes_fetched =
      registry.counter(obs::scoped(scope, "cache.bytes_fetched"));
  obs_.backing_hits =
      registry.counter(obs::scoped(scope, "cache.backing_hits"));
  obs_.resident_bytes =
      registry.gauge(obs::scoped(scope, "cache.resident_bytes"));
  obs_.resident_bytes.set(static_cast<double>(resident_bytes_));
}

std::optional<ModuleArtifact> ModuleCache::lookup(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++stats_.misses;
    obs_.misses.inc();
    if (!backing_) return std::nullopt;
    const auto digest = backing_->get_ref(cas::ref_key("module/" + name));
    if (!digest) return std::nullopt;
    if (auto bytes = backing_->get(*digest)) {
      try {
        ModuleArtifact a = decode_artifact(*bytes);
        ++stats_.backing_hits;
        obs_.backing_hits.inc();
        // Promote without writing through: the bytes came from the store.
        insert_internal(a, digest);
        return a;
      } catch (const serial::DecodeError&) {
        // Store handed back bytes that don't parse as an artifact (ref
        // pointed at something else): treat as a plain miss.
      }
    }
    return std::nullopt;
  }
  ++stats_.hits;
  obs_.hits.inc();
  touch(it->second, name);
  return it->second.artifact;
}

void ModuleCache::touch(Entry& e, const std::string& name) {
  lru_.erase(e.lru_it);
  lru_.push_front(name);
  e.lru_it = lru_.begin();
}

bool ModuleCache::insert(const ModuleArtifact& a) {
  return insert_internal(a, std::nullopt);
}

std::optional<cas::Digest> ModuleCache::digest(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  const Entry& e = it->second;
  if (!e.digest) e.digest = artifact_digest(e.artifact);
  return e.digest;
}

bool ModuleCache::insert_internal(const ModuleArtifact& a,
                                  std::optional<cas::Digest> digest) {
  // Write through to the backing store regardless of whether the in-memory
  // insert below succeeds: a module too large for the LRU budget is still
  // worth keeping on disk for the next deploy. The store hands back the
  // digest, so the entry keeps it.
  if (backing_ && !digest) {
    digest = backing_->put_keyed(cas::ref_key("module/" + a.name),
                                 encode_artifact(a));
  }
  // Replace any resident version of the same name first.
  if (auto it = entries_.find(a.name); it != entries_.end()) {
    if (it->second.pin_count > 0) {
      // In use: swapping the code underneath a running job is never safe.
      // The new version lands on the next insert after the job unpins.
      ++stats_.rejected_pinned;
      return false;
    }
    if (a.size_bytes() > budget_bytes_) {
      // Would never fit; keep the old version rather than losing both.
      ++stats_.rejected_too_large;
      return false;
    }
    erase_entry(a.name);
  }

  if (!make_room(a.size_bytes())) {
    ++stats_.rejected_too_large;
    return false;
  }
  lru_.push_front(a.name);
  Entry e{a, digest, 0, lru_.begin()};
  resident_bytes_ += a.size_bytes();
  entries_.emplace(a.name, std::move(e));
  ++stats_.insertions;
  stats_.bytes_fetched += a.size_bytes();
  obs_.insertions.inc();
  obs_.bytes_fetched.inc(a.size_bytes());
  obs_.resident_bytes.set(static_cast<double>(resident_bytes_));
  return true;
}

bool ModuleCache::make_room(std::size_t need) {
  if (need > budget_bytes_) return false;
  while (resident_bytes_ + need > budget_bytes_) {
    // Evict the least-recently-used unpinned entry.
    auto victim = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (entries_.at(*it).pin_count == 0) {
        victim = std::next(it).base();
        break;
      }
    }
    if (victim == lru_.end()) return false;  // everything pinned
    ++stats_.evictions;
    obs_.evictions.inc();
    erase_entry(*victim);
  }
  return true;
}

void ModuleCache::erase_entry(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  resident_bytes_ -= it->second.artifact.size_bytes();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  obs_.resident_bytes.set(static_cast<double>(resident_bytes_));
}

void ModuleCache::pin(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("pin of non-resident module: " + name);
  }
  ++it->second.pin_count;
}

void ModuleCache::unpin(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  if (it->second.pin_count > 0) --it->second.pin_count;
}

bool ModuleCache::is_pinned(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.pin_count > 0;
}

bool ModuleCache::release(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.pin_count > 0) return false;
  erase_entry(name);
  return true;
}

}  // namespace cg::repo
