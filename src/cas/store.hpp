// ConGrid -- the content-addressed artifact store (two tiers).
//
// The paper's consumer grid lives on cheap redistribution of service code
// and intermediate results; the store makes "have we seen these bytes
// before?" an O(1) question that survives restarts. Objects are keyed by
// the SHA-256 of their raw bytes, so identical module code published under
// different names, or the same pure-unit output recomputed on another
// peer, dedup to a single stored object.
//
// Tier layout:
//   * memory: a byte-budgeted LRU of raw (decompressed) objects -- the hot
//     set, served without touching the filesystem;
//   * disk (optional, CasConfig::dir): objects compressed (cas/compress)
//     and written write-then-rename-atomically into
//     <dir>/objects/<first-2-hex>/<64-hex>, with an append-only journal
//     (<dir>/journal) recording entries, touches, evictions and refs so
//     LRU order and the index survive restart. The journal is compacted on
//     open when it grows past a small multiple of the live entry count.
//
// Reads re-hash the decompressed bytes and drop any object whose digest no
// longer matches its name (torn write, bit rot): the caller sees a plain
// miss and re-fetches, never a crash or silently wrong bytes.
//
// A ref layer maps stable keys to digests -- the mutable pointers
// (git-refs style) over the immutable object space. A key is itself a
// digest: a memo entry's key is its memo digest, a named ref's key is
// ref_key("module/FFT"). Refs may dangle after disk eviction; get_by_key
// treats that as a miss.
//
// All public methods are thread-safe behind one mutex; disk I/O happens
// under the lock (objects are small and callers are cache-miss paths).
#pragma once

#include <cstdint>
#include <cstdio>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cas/hash.hpp"
#include "obs/obs.hpp"
#include "serial/bytes.hpp"

namespace cg::cas {

struct CasConfig {
  /// Disk-tier root directory; empty disables the disk tier entirely.
  std::string dir;
  std::size_t memory_bytes = 32u << 20;  ///< raw-byte budget, memory tier
  std::size_t disk_bytes = 256u << 20;   ///< stored-byte budget, disk tier
  bool compress = true;  ///< compress disk objects (cas/compress.hpp)

  /// Honour the environment knobs: CONGRID_CAS_DIR (disk root),
  /// CONGRID_CAS_MEM_BYTES and CONGRID_CAS_DISK_BYTES (decimal byte
  /// counts). Unset variables keep the defaults above.
  static CasConfig from_env();
};

struct CasStats {
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;       ///< read + promoted to memory
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;            ///< new objects actually stored
  std::uint64_t dedup_hits = 0;      ///< put() of already-present bytes
  std::uint64_t mem_evictions = 0;
  std::uint64_t disk_evictions = 0;
  std::uint64_t corrupt_dropped = 0; ///< failed re-hash / decode on read
  std::uint64_t bytes_stored_raw = 0;   ///< sum of put() object sizes
  std::uint64_t bytes_stored_disk = 0;  ///< compressed bytes written
  std::uint64_t bytes_read_disk = 0;    ///< compressed bytes read
};

/// The ref key of a named ref ("module/FFT"): the SHA-256 of the name, so
/// journal lines never depend on a key's charset or length.
Digest ref_key(std::string_view name);

class ContentStore {
 public:
  /// Opens (creating if needed) the disk tier when cfg.dir is set and
  /// replays its journal; throws std::runtime_error when the directory
  /// cannot be created or the journal cannot be opened for append.
  explicit ContentStore(CasConfig cfg = {});
  ~ContentStore();

  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Store bytes, returning their digest. Storing bytes already present
  /// (either tier) is a cheap dedup hit. An object too large for the disk
  /// budget stays memory-only; one too large for both budgets is not
  /// retained (the digest is still returned -- callers treat the store as
  /// a cache, never as guaranteed persistence).
  Digest put(std::span<const std::uint8_t> bytes);

  /// Fetch by digest: memory first, then disk (verify + promote).
  /// nullopt = not present (including entries dropped as corrupt).
  std::optional<serial::Bytes> get(const Digest& d);

  /// Present in either tier? No promotion, no stats.
  bool contains(const Digest& d) const;

  /// Point `key` at `d` (overwriting any previous target). Journaled.
  void put_ref(const Digest& key, const Digest& d);
  std::optional<Digest> get_ref(const Digest& key) const;

  /// put() + put_ref() in one step.
  Digest put_keyed(const Digest& key, std::span<const std::uint8_t> bytes);
  /// get_ref() + get(); nullopt when the ref is absent or dangles.
  std::optional<serial::Bytes> get_by_key(const Digest& key);

  std::size_t memory_resident_bytes() const;
  std::size_t disk_resident_bytes() const;
  std::size_t memory_object_count() const;
  std::size_t disk_object_count() const;
  const CasConfig& config() const { return cfg_; }
  CasStats stats() const;

  /// Bind "<scope>.cas.*" counters and resident-bytes gauges.
  void set_obs(obs::Registry& registry, std::string_view scope = {});

 private:
  struct MemEntry {
    serial::Bytes raw;
    std::list<Digest>::iterator lru_it;
  };
  struct DiskEntry {
    std::uint64_t stored_bytes = 0;  ///< compressed size on disk
    std::uint64_t raw_bytes = 0;
    std::list<Digest>::iterator lru_it;
  };
  struct Obs {
    obs::CounterRef mem_hits, disk_hits, misses, puts, dedup_hits,
        mem_evictions, disk_evictions, corrupt_dropped, bytes_stored_disk,
        bytes_read_disk;
    obs::GaugeRef mem_bytes, disk_bytes;
  };

  void open_disk_tier();
  void load_journal();
  void compact_journal_locked();
  void journal_locked(const std::string& line);
  std::string object_path(const Digest& d) const;

  void touch_mem_locked(MemEntry& e, const Digest& d);
  void touch_disk_locked(DiskEntry& e, const Digest& d, bool journal);
  void insert_mem_locked(const Digest& d, serial::Bytes raw);
  void write_disk_locked(const Digest& d,
                         std::span<const std::uint8_t> raw);
  // By value: callers pass digests that live inside the LRU list / map
  // nodes these functions erase.
  void evict_disk_locked(Digest d);
  void drop_corrupt_locked(Digest d);

  CasConfig cfg_;
  mutable std::mutex mu_;

  std::unordered_map<Digest, MemEntry, DigestHasher> mem_;
  std::list<Digest> mem_lru_;  ///< front = most recent
  std::size_t mem_bytes_ = 0;

  std::unordered_map<Digest, DiskEntry, DigestHasher> disk_;
  std::list<Digest> disk_lru_;  ///< front = most recent
  std::size_t disk_bytes_ = 0;
  std::FILE* journal_ = nullptr;
  std::uint64_t journal_lines_ = 0;

  /// ref key -> object digest.
  std::unordered_map<Digest, Digest, DigestHasher> refs_;

  CasStats stats_;
  Obs obs_;
};

}  // namespace cg::cas
