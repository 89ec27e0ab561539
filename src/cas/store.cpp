#include "cas/store.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cas/compress.hpp"
#include "serial/reader.hpp"

namespace cg::cas {
namespace fs = std::filesystem;
namespace {

/// Journal records, one per line, space-separated:
///   E <hex> <stored> <raw>   object added to the disk tier
///   T <hex>                  object touched (LRU refresh / promotion)
///   D <hex>                  object evicted or dropped
///   R <keyhex> <hex>         ref set (keyhex = the ref key: a memo digest,
///                            or ref_key() of a name like "module/FFT")
/// Replay order reconstructs both the index and the LRU order; compaction
/// rewrites the journal as E lines in LRU order plus live R lines.

std::size_t env_bytes(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  return (end && *end == '\0') ? static_cast<std::size_t>(n) : fallback;
}

}  // namespace

Digest ref_key(std::string_view name) {
  return sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
}

CasConfig CasConfig::from_env() {
  CasConfig cfg;
  if (const char* dir = std::getenv("CONGRID_CAS_DIR"); dir && *dir) {
    cfg.dir = dir;
  }
  cfg.memory_bytes = env_bytes("CONGRID_CAS_MEM_BYTES", cfg.memory_bytes);
  cfg.disk_bytes = env_bytes("CONGRID_CAS_DISK_BYTES", cfg.disk_bytes);
  return cfg;
}

ContentStore::ContentStore(CasConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.dir.empty()) open_disk_tier();
}

ContentStore::~ContentStore() {
  if (journal_) std::fclose(journal_);
}

void ContentStore::open_disk_tier() {
  std::error_code ec;
  fs::create_directories(fs::path(cfg_.dir) / "objects", ec);
  fs::create_directories(fs::path(cfg_.dir) / "tmp", ec);
  if (ec) {
    throw std::runtime_error("cas: cannot create store directory " +
                             cfg_.dir + ": " + ec.message());
  }
  load_journal();
  compact_journal_locked();  // also creates the journal on first open
  if (!journal_) {
    throw std::runtime_error("cas: cannot open journal for append in " +
                             cfg_.dir);
  }
}

void ContentStore::load_journal() {
  const fs::path jpath = fs::path(cfg_.dir) / "journal";
  std::ifstream in(jpath);
  std::string line;
  while (in && std::getline(in, line)) {
    ++journal_lines_;
    std::istringstream ls(line);
    std::string tag, hex;
    if (!(ls >> tag >> hex)) continue;  // torn final line: ignore
    const auto d = Digest::from_hex(hex);
    if (!d) continue;
    if (tag == "E") {
      std::uint64_t stored = 0, raw = 0;
      if (!(ls >> stored >> raw)) continue;
      if (auto it = disk_.find(*d); it != disk_.end()) {
        disk_bytes_ -= it->second.stored_bytes;
        disk_lru_.erase(it->second.lru_it);
        disk_.erase(it);
      }
      disk_lru_.push_front(*d);
      disk_.emplace(*d, DiskEntry{stored, raw, disk_lru_.begin()});
      disk_bytes_ += stored;
    } else if (tag == "T") {
      if (auto it = disk_.find(*d); it != disk_.end()) {
        disk_lru_.erase(it->second.lru_it);
        disk_lru_.push_front(*d);
        it->second.lru_it = disk_lru_.begin();
      }
    } else if (tag == "D") {
      if (auto it = disk_.find(*d); it != disk_.end()) {
        disk_bytes_ -= it->second.stored_bytes;
        disk_lru_.erase(it->second.lru_it);
        disk_.erase(it);
      }
    } else if (tag == "R") {
      std::string value_hex;
      if (!(ls >> value_hex)) continue;
      if (const auto v = Digest::from_hex(value_hex)) refs_[*d] = *v;
    }
  }

  // Reconcile with the filesystem: entries whose object file vanished are
  // dropped; object files the journal never heard of (crash between rename
  // and append) are adopted by re-reading and verifying them.
  for (auto it = disk_.begin(); it != disk_.end();) {
    if (!fs::exists(object_path(it->first))) {
      disk_bytes_ -= it->second.stored_bytes;
      disk_lru_.erase(it->second.lru_it);
      it = disk_.erase(it);
    } else {
      ++it;
    }
  }
  std::error_code ec;
  for (const auto& shard :
       fs::directory_iterator(fs::path(cfg_.dir) / "objects", ec)) {
    if (!shard.is_directory()) continue;
    for (const auto& f : fs::directory_iterator(shard.path(), ec)) {
      const auto d = Digest::from_hex(f.path().filename().string());
      if (!d || disk_.contains(*d)) continue;
      std::ifstream obj(f.path(), std::ios::binary);
      serial::Bytes stored((std::istreambuf_iterator<char>(obj)),
                           std::istreambuf_iterator<char>());
      try {
        const serial::Bytes raw =
            cfg_.compress ? decompress(stored) : stored;
        if (sha256(raw) != *d) throw serial::DecodeError("digest mismatch");
        disk_lru_.push_back(*d);  // unknown recency: coldest end
        disk_.emplace(*d, DiskEntry{stored.size(), raw.size(),
                                    std::prev(disk_lru_.end())});
        disk_bytes_ += stored.size();
      } catch (const serial::DecodeError&) {
        fs::remove(f.path(), ec);  // half-written orphan
      }
    }
  }
}

void ContentStore::compact_journal_locked() {
  const fs::path jpath = fs::path(cfg_.dir) / "journal";
  const fs::path tmp = fs::path(cfg_.dir) / "tmp" / "journal.compact";
  if (journal_) {
    std::fclose(journal_);
    journal_ = nullptr;
  }
  {
    std::ofstream out(tmp, std::ios::trunc);
    // Oldest first so replay's push_front rebuilds the same LRU order.
    for (auto it = disk_lru_.rbegin(); it != disk_lru_.rend(); ++it) {
      const DiskEntry& e = disk_.at(*it);
      out << "E " << it->hex() << ' ' << e.stored_bytes << ' ' << e.raw_bytes
          << '\n';
    }
    for (const auto& [k, v] : refs_) {
      out << "R " << k.hex() << ' ' << v.hex() << '\n';
    }
  }
  std::error_code ec;
  fs::rename(tmp, jpath, ec);
  journal_lines_ = disk_.size() + refs_.size();
  journal_ = std::fopen(jpath.string().c_str(), "a");
}

void ContentStore::journal_locked(const std::string& line) {
  if (!journal_) return;
  std::fputs(line.c_str(), journal_);
  std::fputc('\n', journal_);
  std::fflush(journal_);
  if (++journal_lines_ > 4 * (disk_.size() + refs_.size()) + 64) {
    compact_journal_locked();
  }
}

std::string ContentStore::object_path(const Digest& d) const {
  const std::string hex = d.hex();
  return (fs::path(cfg_.dir) / "objects" / hex.substr(0, 2) / hex).string();
}

void ContentStore::touch_mem_locked(MemEntry& e, const Digest& d) {
  mem_lru_.erase(e.lru_it);
  mem_lru_.push_front(d);
  e.lru_it = mem_lru_.begin();
}

void ContentStore::touch_disk_locked(DiskEntry& e, const Digest& d,
                                     bool journal) {
  disk_lru_.erase(e.lru_it);
  disk_lru_.push_front(d);
  e.lru_it = disk_lru_.begin();
  if (journal) journal_locked("T " + d.hex());
}

void ContentStore::insert_mem_locked(const Digest& d, serial::Bytes raw) {
  if (raw.size() > cfg_.memory_bytes) return;  // would evict everything
  while (mem_bytes_ + raw.size() > cfg_.memory_bytes && !mem_lru_.empty()) {
    const Digest victim = mem_lru_.back();
    auto it = mem_.find(victim);
    mem_bytes_ -= it->second.raw.size();
    mem_lru_.pop_back();
    mem_.erase(it);
    ++stats_.mem_evictions;
    obs_.mem_evictions.inc();
  }
  mem_bytes_ += raw.size();
  mem_lru_.push_front(d);
  mem_.emplace(d, MemEntry{std::move(raw), mem_lru_.begin()});
  obs_.mem_bytes.set(static_cast<double>(mem_bytes_));
}

void ContentStore::write_disk_locked(const Digest& d,
                                     std::span<const std::uint8_t> raw) {
  const serial::Bytes stored =
      cfg_.compress ? compress(raw) : serial::Bytes(raw.begin(), raw.end());
  if (stored.size() > cfg_.disk_bytes) return;  // never fits
  while (disk_bytes_ + stored.size() > cfg_.disk_bytes &&
         !disk_lru_.empty()) {
    evict_disk_locked(disk_lru_.back());
  }

  const std::string hex = d.hex();
  const fs::path dir = fs::path(cfg_.dir) / "objects" / hex.substr(0, 2);
  const fs::path tmp = fs::path(cfg_.dir) / "tmp" / (hex + ".tmp");
  std::error_code ec;
  fs::create_directories(dir, ec);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(stored.data()),
              static_cast<std::streamsize>(stored.size()));
    if (!out) {
      fs::remove(tmp, ec);
      return;  // disk full / unwritable: stay memory-only
    }
  }
  fs::rename(tmp, dir / hex, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }

  disk_lru_.push_front(d);
  disk_.emplace(d, DiskEntry{stored.size(), raw.size(), disk_lru_.begin()});
  disk_bytes_ += stored.size();
  stats_.bytes_stored_disk += stored.size();
  obs_.bytes_stored_disk.inc(stored.size());
  obs_.disk_bytes.set(static_cast<double>(disk_bytes_));
  journal_locked("E " + hex + ' ' + std::to_string(stored.size()) + ' ' +
                 std::to_string(raw.size()));
}

void ContentStore::evict_disk_locked(Digest d) {
  auto it = disk_.find(d);
  if (it == disk_.end()) return;
  std::error_code ec;
  fs::remove(object_path(d), ec);
  disk_bytes_ -= it->second.stored_bytes;
  disk_lru_.erase(it->second.lru_it);
  disk_.erase(it);
  ++stats_.disk_evictions;
  obs_.disk_evictions.inc();
  obs_.disk_bytes.set(static_cast<double>(disk_bytes_));
  journal_locked("D " + d.hex());
}

void ContentStore::drop_corrupt_locked(Digest d) {
  auto it = disk_.find(d);
  if (it != disk_.end()) {
    std::error_code ec;
    fs::remove(object_path(d), ec);
    disk_bytes_ -= it->second.stored_bytes;
    disk_lru_.erase(it->second.lru_it);
    disk_.erase(it);
    obs_.disk_bytes.set(static_cast<double>(disk_bytes_));
    journal_locked("D " + d.hex());
  }
  ++stats_.corrupt_dropped;
  obs_.corrupt_dropped.inc();
}

Digest ContentStore::put(std::span<const std::uint8_t> bytes) {
  const Digest d = sha256(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = mem_.find(d); it != mem_.end()) {
    ++stats_.dedup_hits;
    obs_.dedup_hits.inc();
    touch_mem_locked(it->second, d);
    return d;
  }
  if (auto it = disk_.find(d); it != disk_.end()) {
    ++stats_.dedup_hits;
    obs_.dedup_hits.inc();
    touch_disk_locked(it->second, d, /*journal=*/true);
    insert_mem_locked(d, serial::Bytes(bytes.begin(), bytes.end()));
    return d;
  }
  ++stats_.puts;
  stats_.bytes_stored_raw += bytes.size();
  obs_.puts.inc();
  if (!cfg_.dir.empty()) write_disk_locked(d, bytes);
  insert_mem_locked(d, serial::Bytes(bytes.begin(), bytes.end()));
  return d;
}

std::optional<serial::Bytes> ContentStore::get(const Digest& d) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = mem_.find(d); it != mem_.end()) {
    ++stats_.mem_hits;
    obs_.mem_hits.inc();
    touch_mem_locked(it->second, d);
    return it->second.raw;
  }
  if (auto it = disk_.find(d); it != disk_.end()) {
    std::ifstream obj(object_path(d), std::ios::binary);
    serial::Bytes stored((std::istreambuf_iterator<char>(obj)),
                         std::istreambuf_iterator<char>());
    if (!obj.good() && stored.empty() && it->second.stored_bytes != 0) {
      drop_corrupt_locked(d);  // file unreadable or vanished
      ++stats_.misses;
      obs_.misses.inc();
      return std::nullopt;
    }
    stats_.bytes_read_disk += stored.size();
    obs_.bytes_read_disk.inc(stored.size());
    serial::Bytes raw;
    try {
      raw = cfg_.compress ? decompress(stored) : std::move(stored);
      if (sha256(raw) != d) {
        throw serial::DecodeError("cas: object digest mismatch");
      }
    } catch (const serial::DecodeError&) {
      drop_corrupt_locked(d);
      ++stats_.misses;
      obs_.misses.inc();
      return std::nullopt;
    }
    ++stats_.disk_hits;
    obs_.disk_hits.inc();
    touch_disk_locked(it->second, d, /*journal=*/true);
    insert_mem_locked(d, raw);
    return raw;
  }
  ++stats_.misses;
  obs_.misses.inc();
  return std::nullopt;
}

bool ContentStore::contains(const Digest& d) const {
  std::lock_guard<std::mutex> lock(mu_);
  return mem_.contains(d) || disk_.contains(d);
}

void ContentStore::put_ref(const Digest& key, const Digest& d) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = refs_.try_emplace(key, d);
  if (!inserted) {
    if (it->second == d) return;  // unchanged: skip the journal line
    it->second = d;
  }
  journal_locked("R " + key.hex() + ' ' + d.hex());
}

std::optional<Digest> ContentStore::get_ref(const Digest& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(key);
  return it == refs_.end() ? std::nullopt : std::optional<Digest>(it->second);
}

Digest ContentStore::put_keyed(const Digest& key,
                               std::span<const std::uint8_t> bytes) {
  const Digest d = put(bytes);
  put_ref(key, d);
  return d;
}

std::optional<serial::Bytes> ContentStore::get_by_key(const Digest& key) {
  const auto d = get_ref(key);
  return d ? get(*d) : std::nullopt;
}

std::size_t ContentStore::memory_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mem_bytes_;
}

std::size_t ContentStore::disk_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_bytes_;
}

std::size_t ContentStore::memory_object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mem_.size();
}

std::size_t ContentStore::disk_object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_.size();
}

CasStats ContentStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ContentStore::set_obs(obs::Registry& registry, std::string_view scope) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.mem_hits = registry.counter(obs::scoped(scope, "cas.mem_hits"));
  obs_.disk_hits = registry.counter(obs::scoped(scope, "cas.disk_hits"));
  obs_.misses = registry.counter(obs::scoped(scope, "cas.misses"));
  obs_.puts = registry.counter(obs::scoped(scope, "cas.puts"));
  obs_.dedup_hits = registry.counter(obs::scoped(scope, "cas.dedup_hits"));
  obs_.mem_evictions =
      registry.counter(obs::scoped(scope, "cas.mem_evictions"));
  obs_.disk_evictions =
      registry.counter(obs::scoped(scope, "cas.disk_evictions"));
  obs_.corrupt_dropped =
      registry.counter(obs::scoped(scope, "cas.corrupt_dropped"));
  obs_.bytes_stored_disk =
      registry.counter(obs::scoped(scope, "cas.bytes_stored_disk"));
  obs_.bytes_read_disk =
      registry.counter(obs::scoped(scope, "cas.bytes_read_disk"));
  obs_.mem_bytes = registry.gauge(obs::scoped(scope, "cas.mem_bytes"));
  obs_.disk_bytes = registry.gauge(obs::scoped(scope, "cas.disk_bytes"));
  obs_.mem_bytes.set(static_cast<double>(mem_bytes_));
  obs_.disk_bytes.set(static_cast<double>(disk_bytes_));
}

}  // namespace cg::cas
