// Tests for cg_cas: SHA-256 against FIPS 180-4 vectors, the LZ codec, and
// the two-tier content store -- dedup, LRU eviction in both tiers, journal
// replay across restart, corruption dropped as a miss, zero-byte objects,
// the ref layer, and thread-safety of concurrent get/put (TSan tier).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "cas/compress.hpp"
#include "cas/hash.hpp"
#include "cas/hash_detail.hpp"
#include "cas/store.hpp"
#include "serial/reader.hpp"

namespace cg::cas {
namespace {

namespace fs = std::filesystem;

serial::Bytes bytes_of(std::string_view s) {
  return serial::Bytes(s.begin(), s.end());
}

/// Repetitive (compressible) payload of `n` bytes seeded by `seed`.
serial::Bytes compressible(std::size_t n, std::uint8_t seed = 0) {
  serial::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + (i % 17));
  }
  return out;
}

/// Pseudo-random (incompressible) payload.
serial::Bytes incompressible(std::size_t n, std::uint64_t seed = 99) {
  serial::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::uint8_t>(seed >> 56);
  }
  return out;
}

/// Fresh store directory per test, removed on teardown (keeps tier-1 runs
/// from accreting temp state).
class CasDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("congrid_cas_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// ----------------------------------------------------------------- hashing

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256(bytes_of("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256(bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const auto data = incompressible(100000);
  Sha256 h;
  // Feed in ragged chunks crossing every block boundary alignment.
  std::size_t pos = 0, chunk = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - pos);
    h.update(std::span<const std::uint8_t>(data.data() + pos, n));
    pos += n;
    chunk = (chunk * 7 + 3) % 200 + 1;
  }
  EXPECT_EQ(h.finish(), sha256(data));
}

TEST(Sha256Test, EveryPaddingBoundaryMatches) {
  // finish() pads in one step: the 55/56 (length fits / spills into an
  // extra block) and 63/64 (full buffer) edges, across three blocks.
  const auto data = incompressible(200);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    Sha256 h;
    for (std::size_t i = 0; i < n; ++i) h.update(&data[i], 1);
    EXPECT_EQ(h.finish(),
              sha256(std::span<const std::uint8_t>(data.data(), n)))
        << "length " << n;
  }
  // Known answers for "a" * n at the same edges.
  const std::pair<std::size_t, const char*> known[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : known) {
    EXPECT_EQ(sha256(bytes_of(std::string(n, 'a'))).hex(), hex) << n;
  }
}

TEST(Sha256Test, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
#if defined(__x86_64__) || defined(__i386__)
  if (!detail::sha_ni_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  std::uint64_t seed = 7;
  const auto next = [&seed] {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(seed >> 32);
  };
  for (std::size_t n_blocks = 1; n_blocks <= 5; ++n_blocks) {
    for (int trial = 0; trial < 200; ++trial) {
      detail::State scalar;
      for (auto& w : scalar) w = next();
      detail::State ni = scalar;
      // One spare byte in front: the SHA-NI loads must not assume
      // alignment of the caller's buffer.
      serial::Bytes buf(1 + 64 * n_blocks);
      for (auto& b : buf) b = static_cast<std::uint8_t>(next());
      detail::compress_scalar(scalar, buf.data() + 1, n_blocks);
      detail::compress_sha_ni(ni, buf.data() + 1, n_blocks);
      ASSERT_EQ(ni, scalar) << n_blocks << " blocks, trial " << trial;
    }
  }
#else
  GTEST_SKIP() << "SHA-NI is an x86 extension";
#endif
}

TEST(Sha256Test, RandomSplitsMatchOneShot) {
  const auto data = incompressible(4096, 1234);
  std::uint64_t seed = 42;
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::span<const std::uint8_t> whole(data.data(), n);
    Sha256 h;
    std::size_t pos = 0;
    while (pos < n) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t take =
          std::min<std::size_t>(n - pos, (seed >> 33) % 300);
      h.update(whole.subspan(pos, take));
      pos += take;
    }
    ASSERT_EQ(h.finish(), sha256(whole)) << "length " << n;
  }
}

TEST(Sha256Test, HexRoundTripAndOrdering) {
  const Digest d = sha256(bytes_of("round trip"));
  const auto back = Digest::from_hex(d.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
  EXPECT_FALSE(Digest::from_hex("xyz").has_value());
  EXPECT_FALSE(Digest::from_hex(d.hex().substr(1)).has_value());
  EXPECT_NE(sha256(bytes_of("a")), sha256(bytes_of("b")));
}

// ------------------------------------------------------------- compression

TEST(CompressTest, RoundTripCompressible) {
  const auto raw = compressible(64 * 1024);
  const auto packed = compress(raw);
  EXPECT_LT(packed.size(), raw.size() / 2);  // repetitive input shrinks
  EXPECT_EQ(decompress(packed), raw);
}

TEST(CompressTest, IncompressibleFallsBackToStored) {
  const auto raw = incompressible(16 * 1024);
  const auto packed = compress(raw);
  // Stored fallback: overhead is just the varint size header + method byte.
  EXPECT_LE(packed.size(), raw.size() + 4);
  EXPECT_EQ(decompress(packed), raw);
}

TEST(CompressTest, EdgeSizes) {
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 64u}) {
    const auto raw = compressible(n);
    EXPECT_EQ(decompress(compress(raw)), raw) << "n=" << n;
  }
}

TEST(CompressTest, OverlappingMatchReplicates) {
  // "ab" * 4000: matches overlap their own output (offset < length).
  serial::Bytes raw;
  for (int i = 0; i < 4000; ++i) {
    raw.push_back('a');
    raw.push_back('b');
  }
  const auto packed = compress(raw);
  EXPECT_LT(packed.size(), 200u);
  EXPECT_EQ(decompress(packed), raw);
}

TEST(CompressTest, MalformedInputThrows) {
  EXPECT_THROW(decompress({}), serial::DecodeError);
  auto packed = compress(compressible(1024));
  packed.resize(packed.size() / 2);  // truncated
  EXPECT_THROW(decompress(packed), serial::DecodeError);
  serial::Bytes bad = {0x08, 0x07};  // raw_size=8, unknown method 7
  EXPECT_THROW(decompress(bad), serial::DecodeError);
}

// ---------------------------------------------------------- memory-only tier

TEST(MemoryStoreTest, PutGetDedup) {
  ContentStore store;  // no dir: memory-only
  const auto payload = compressible(1000);
  const Digest d = store.put(payload);
  EXPECT_EQ(d, sha256(payload));
  EXPECT_TRUE(store.contains(d));
  EXPECT_EQ(store.get(d), payload);

  EXPECT_EQ(store.put(payload), d);  // same bytes: dedup, not a new object
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  EXPECT_EQ(store.memory_object_count(), 1u);

  EXPECT_FALSE(store.get(sha256(bytes_of("absent"))).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(MemoryStoreTest, ZeroByteObject) {
  ContentStore store;
  const Digest d = store.put({});
  EXPECT_EQ(d.hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const auto got = store.get(d);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(MemoryStoreTest, LruEvictionHonoursBudget) {
  CasConfig cfg;
  cfg.memory_bytes = 3000;
  ContentStore store(cfg);
  const auto a = incompressible(1000, 1);
  const auto b = incompressible(1000, 2);
  const auto c = incompressible(1000, 3);
  const Digest da = store.put(a), db = store.put(b), dc = store.put(c);
  EXPECT_EQ(store.memory_resident_bytes(), 3000u);

  store.get(da);                             // a is now most recent; b is LRU
  store.put(incompressible(1000, 4));        // evicts b
  EXPECT_LE(store.memory_resident_bytes(), 3000u);
  EXPECT_TRUE(store.contains(da));
  EXPECT_FALSE(store.contains(db));
  EXPECT_TRUE(store.contains(dc));
  EXPECT_EQ(store.stats().mem_evictions, 1u);

  // An object bigger than the whole budget is not retained (still hashed).
  const Digest huge = store.put(incompressible(5000, 5));
  EXPECT_FALSE(store.contains(huge));
  EXPECT_EQ(huge, sha256(incompressible(5000, 5)));
}

TEST(MemoryStoreTest, Refs) {
  ContentStore store;
  const Digest d1 = store.put(bytes_of("v1"));
  const Digest d2 = store.put(bytes_of("v2"));
  const Digest fft = ref_key("module/FFT");
  store.put_ref(fft, d1);
  EXPECT_EQ(store.get_ref(fft), d1);
  EXPECT_EQ(store.get_by_key(fft), bytes_of("v1"));
  store.put_ref(fft, d2);  // repoint
  EXPECT_EQ(store.get_by_key(fft), bytes_of("v2"));
  EXPECT_FALSE(store.get_ref(ref_key("module/missing")).has_value());
  EXPECT_FALSE(store.get_by_key(ref_key("module/missing")).has_value());
  // A named ref's key is the SHA-256 of its name, so journal R lines
  // written under string-keyed refs still replay to the same key.
  EXPECT_EQ(fft, sha256(bytes_of("module/FFT")));
}

// ----------------------------------------------------------------- disk tier

TEST_F(CasDirTest, DiskPersistsAcrossRestart) {
  const auto payload = compressible(32 * 1024);
  Digest d;
  {
    ContentStore store(CasConfig{.dir = dir_});
    d = store.put(payload);
    store.put_ref(ref_key("module/fft"), d);
    EXPECT_EQ(store.disk_object_count(), 1u);
    EXPECT_LT(store.disk_resident_bytes(), payload.size());  // compressed
  }
  // New store, same directory: index, object and ref all survive.
  ContentStore warm(CasConfig{.dir = dir_});
  EXPECT_EQ(warm.disk_object_count(), 1u);
  EXPECT_TRUE(warm.contains(d));
  EXPECT_EQ(warm.get(d), payload);
  EXPECT_EQ(warm.stats().disk_hits, 1u);   // first get came from disk
  EXPECT_EQ(warm.get(d), payload);
  EXPECT_EQ(warm.stats().mem_hits, 1u);    // promoted to memory
  EXPECT_EQ(warm.get_by_key(ref_key("module/fft")), payload);
}

TEST_F(CasDirTest, DiskLruEvictionHonoursBudget) {
  CasConfig cfg;
  cfg.dir = dir_;
  cfg.memory_bytes = 1;          // force everything through the disk tier
  cfg.compress = false;          // sizes stay predictable
  cfg.disk_bytes = 3 * 4096;
  ContentStore store(cfg);
  std::vector<Digest> ds;
  for (std::uint8_t i = 0; i < 5; ++i) {
    ds.push_back(store.put(incompressible(4096, i)));
    EXPECT_LE(store.disk_resident_bytes(), cfg.disk_bytes);
  }
  EXPECT_EQ(store.stats().disk_evictions, 2u);
  EXPECT_FALSE(store.contains(ds[0]));
  EXPECT_FALSE(store.contains(ds[1]));
  EXPECT_TRUE(store.contains(ds[2]));
  EXPECT_TRUE(store.contains(ds[4]));
}

TEST_F(CasDirTest, CorruptObjectIsDroppedNotServed) {
  const auto payload = compressible(8192);
  Digest d;
  {
    ContentStore store(CasConfig{.dir = dir_});
    d = store.put(payload);
  }
  // Flip a byte in the on-disk object.
  const fs::path obj =
      fs::path(dir_) / "objects" / d.hex().substr(0, 2) / d.hex();
  {
    std::fstream f(obj, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x7f');
  }
  ContentStore store(CasConfig{.dir = dir_});
  // Never wrong bytes, never a crash: a corrupt entry is a plain miss, and
  // the entry is dropped so a re-put can heal it.
  EXPECT_FALSE(store.get(d).has_value());
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(store.contains(d));
  EXPECT_EQ(store.put(payload), d);
  EXPECT_EQ(store.get(d), payload);
}

TEST_F(CasDirTest, TruncatedObjectIsDroppedNotServed) {
  const auto payload = compressible(8192);
  Digest d;
  {
    ContentStore store(CasConfig{.dir = dir_});
    d = store.put(payload);
  }
  const fs::path obj =
      fs::path(dir_) / "objects" / d.hex().substr(0, 2) / d.hex();
  fs::resize_file(obj, 3);
  ContentStore store(CasConfig{.dir = dir_});
  EXPECT_FALSE(store.get(d).has_value());
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
}

TEST_F(CasDirTest, JournalCompactionPreservesState) {
  CasConfig cfg;
  cfg.dir = dir_;
  std::vector<Digest> ds;
  const Digest memo_key = sha256(bytes_of("a memo digest"));
  {
    ContentStore store(cfg);
    for (std::uint8_t i = 0; i < 8; ++i) {
      ds.push_back(store.put(incompressible(512, i)));
    }
    // Plenty of touch lines to trigger compaction on reopen or inline.
    for (int round = 0; round < 50; ++round) {
      for (const auto& d : ds) store.get(d);
    }
    store.put_ref(memo_key, ds[3]);
  }
  ContentStore warm(cfg);
  EXPECT_EQ(warm.disk_object_count(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) {
    EXPECT_EQ(warm.get(ds[i]), incompressible(512, i));
  }
  EXPECT_EQ(warm.get_ref(memo_key), ds[3]);
}

TEST_F(CasDirTest, OrphanObjectFileIsAdopted) {
  Digest d;
  const auto payload = compressible(2048);
  {
    ContentStore store(CasConfig{.dir = dir_});
    d = store.put(payload);
  }
  // Simulate a crash between object rename and journal append: wipe the
  // journal, leaving the object file behind.
  fs::remove(fs::path(dir_) / "journal");
  ContentStore warm(CasConfig{.dir = dir_});
  EXPECT_TRUE(warm.contains(d));
  EXPECT_EQ(warm.get(d), payload);
}

// --------------------------------------------------------------- concurrency

TEST_F(CasDirTest, ConcurrentGetPutSameHash) {
  CasConfig cfg;
  cfg.dir = dir_;
  cfg.memory_bytes = 8 * 1024;  // small enough that eviction runs too
  ContentStore store(cfg);
  const auto payload = compressible(4096, 7);
  const Digest d = sha256(payload);

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if ((t + r) % 2 == 0) {
          EXPECT_EQ(store.put(payload), d);
        } else if (auto got = store.get(d)) {
          EXPECT_EQ(*got, payload);
        }
        // Interleave distinct per-thread objects to exercise eviction.
        store.put(incompressible(1024, static_cast<std::uint64_t>(t) * 1000 +
                                           static_cast<std::uint64_t>(r)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.get(d), payload);
  const auto s = store.stats();
  EXPECT_GE(s.mem_hits + s.disk_hits, 1u);
}

TEST(CasConfigTest, FromEnvDefaultsWhenUnset) {
  // The suite must not depend on ambient CONGRID_CAS_* -- scrub first.
  unsetenv("CONGRID_CAS_DIR");
  unsetenv("CONGRID_CAS_MEM_BYTES");
  unsetenv("CONGRID_CAS_DISK_BYTES");
  const CasConfig cfg = CasConfig::from_env();
  EXPECT_TRUE(cfg.dir.empty());
  EXPECT_EQ(cfg.memory_bytes, 32u << 20);
  EXPECT_EQ(cfg.disk_bytes, 256u << 20);

  setenv("CONGRID_CAS_DIR", "/tmp/x", 1);
  setenv("CONGRID_CAS_MEM_BYTES", "1234", 1);
  setenv("CONGRID_CAS_DISK_BYTES", "not-a-number", 1);
  const CasConfig cfg2 = CasConfig::from_env();
  EXPECT_EQ(cfg2.dir, "/tmp/x");
  EXPECT_EQ(cfg2.memory_bytes, 1234u);
  EXPECT_EQ(cfg2.disk_bytes, 256u << 20);  // malformed: keep default
  unsetenv("CONGRID_CAS_DIR");
  unsetenv("CONGRID_CAS_MEM_BYTES");
  unsetenv("CONGRID_CAS_DISK_BYTES");
}

}  // namespace
}  // namespace cg::cas
