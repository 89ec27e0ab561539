// Tests for cg_repo: artifact hashing/codec, the authoritative repository
// (versions, dependency closures), the byte-budgeted LRU module cache with
// pinning, and the code exchange protocol over the simulated network.
#include <gtest/gtest.h>

#include "cas/store.hpp"
#include "net/sim_network.hpp"
#include "p2p/peer_node.hpp"
#include "repo/code_exchange.hpp"
#include "repo/module_cache.hpp"
#include "repo/repository.hpp"

namespace cg::repo {
namespace {

TEST(Artifact, CodecRoundTrip) {
  auto a = make_synthetic_artifact("fft", "1.2", 1024, {"math", "complex"});
  auto back = decode_artifact(encode_artifact(a));
  EXPECT_EQ(back, a);
}

TEST(Artifact, HashChangesWithContent) {
  auto a = make_synthetic_artifact("fft", "1.0", 256);
  auto b = make_synthetic_artifact("fft", "1.1", 256);
  auto c = make_synthetic_artifact("ifft", "1.0", 256);
  EXPECT_NE(artifact_digest(a), artifact_digest(b));
  EXPECT_NE(artifact_digest(a), artifact_digest(c));
  EXPECT_EQ(artifact_digest(a),
            artifact_digest(make_synthetic_artifact("fft", "1.0", 256)));
}

TEST(Artifact, KeyFormat) {
  auto a = make_synthetic_artifact("wave", "2.0", 16);
  EXPECT_EQ(a.key(), "wave@2.0");
  EXPECT_EQ(a.size_bytes(), 16u);
}

TEST(Repository, PutGetLatest) {
  ModuleRepository r;
  r.put(make_synthetic_artifact("fft", "1.0", 100));
  r.put(make_synthetic_artifact("fft", "1.2", 100));
  r.put(make_synthetic_artifact("fft", "1.1", 100));
  r.put(make_synthetic_artifact("wave", "0.9", 50));

  EXPECT_TRUE(r.get("fft", "1.1").has_value());
  EXPECT_FALSE(r.get("fft", "9.9").has_value());
  EXPECT_EQ(r.latest("fft")->version, "1.2");
  EXPECT_FALSE(r.latest("missing").has_value());
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.total_bytes(), 350u);
  EXPECT_EQ(r.module_names(),
            (std::vector<std::string>{"fft", "wave"}));
}

TEST(Repository, PutReplacesSameKey) {
  ModuleRepository r;
  r.put(make_synthetic_artifact("fft", "1.0", 100));
  r.put(make_synthetic_artifact("fft", "1.0", 200));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.get("fft", "1.0")->size_bytes(), 200u);
}

TEST(Repository, ClosureDependencyFirst) {
  ModuleRepository r;
  r.put(make_synthetic_artifact("math", "1.0", 10));
  r.put(make_synthetic_artifact("complex", "1.0", 10, {"math"}));
  r.put(make_synthetic_artifact("fft", "1.0", 10, {"complex", "math"}));

  auto c = r.closure("fft", "1.0");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].name, "math");
  EXPECT_EQ(c[1].name, "complex");
  EXPECT_EQ(c[2].name, "fft");
}

TEST(Repository, ClosureMissingDepThrows) {
  ModuleRepository r;
  r.put(make_synthetic_artifact("fft", "1.0", 10, {"ghost"}));
  EXPECT_THROW(r.closure("fft", "1.0"), std::out_of_range);
}

TEST(Repository, ClosureHandlesDiamond) {
  ModuleRepository r;
  r.put(make_synthetic_artifact("base", "1.0", 10));
  r.put(make_synthetic_artifact("a", "1.0", 10, {"base"}));
  r.put(make_synthetic_artifact("b", "1.0", 10, {"base"}));
  r.put(make_synthetic_artifact("top", "1.0", 10, {"a", "b"}));
  auto c = r.closure("top", "1.0");
  EXPECT_EQ(c.size(), 4u);  // base appears once
}

TEST(Cache, HitMissAndLru) {
  ModuleCache cache(300);
  cache.insert(make_synthetic_artifact("a", "1", 100));
  cache.insert(make_synthetic_artifact("b", "1", 100));
  cache.insert(make_synthetic_artifact("c", "1", 100));
  EXPECT_EQ(cache.resident_bytes(), 300u);

  EXPECT_TRUE(cache.lookup("a").has_value());  // refresh a
  cache.insert(make_synthetic_artifact("d", "1", 100));
  // b was least recent -> evicted.
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Cache, MissCounted) {
  ModuleCache cache(100);
  EXPECT_FALSE(cache.lookup("nothing").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

TEST(Cache, PinPreventsEviction) {
  ModuleCache cache(200);
  cache.insert(make_synthetic_artifact("pinned", "1", 100));
  cache.insert(make_synthetic_artifact("loose", "1", 100));
  cache.pin("pinned");
  // Both would have to go to fit 200; only "loose" may.
  EXPECT_TRUE(cache.insert(make_synthetic_artifact("new", "1", 100)));
  EXPECT_TRUE(cache.contains("pinned"));
  EXPECT_FALSE(cache.contains("loose"));

  // Now pinned + new occupy everything and new insert can't fit.
  cache.pin("new");
  EXPECT_FALSE(cache.insert(make_synthetic_artifact("x", "1", 150)));
  EXPECT_EQ(cache.stats().rejected_too_large, 1u);

  cache.unpin("new");
  EXPECT_TRUE(cache.insert(make_synthetic_artifact("x", "1", 100)));
}

TEST(Cache, PinAbsentThrows) {
  ModuleCache cache(100);
  EXPECT_THROW(cache.pin("ghost"), std::out_of_range);
  cache.unpin("ghost");  // unpin of absent is a no-op
}

TEST(Cache, ReleaseRespectsPins) {
  ModuleCache cache(100);
  cache.insert(make_synthetic_artifact("m", "1", 50));
  cache.pin("m");
  EXPECT_FALSE(cache.release("m"));
  cache.unpin("m");
  EXPECT_TRUE(cache.release("m"));
  EXPECT_FALSE(cache.release("m"));  // already gone
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(Cache, OversizedArtifactRejected) {
  ModuleCache cache(100);
  EXPECT_FALSE(cache.insert(make_synthetic_artifact("big", "1", 101)));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(Cache, NewVersionReplacesUnpinnedEntry) {
  ModuleCache cache(1000);
  cache.insert(make_synthetic_artifact("fft", "1.0", 100));
  EXPECT_TRUE(cache.insert(make_synthetic_artifact("fft", "2.0", 150)));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.lookup("fft")->version, "2.0");
  EXPECT_EQ(cache.resident_bytes(), 150u);
}

TEST(Cache, PinnedEntryRejectsReplacement) {
  // Swapping code underneath a running job is refused; the old version
  // stays resident and pinned.
  ModuleCache cache(1000);
  cache.insert(make_synthetic_artifact("fft", "1.0", 100));
  cache.pin("fft");
  EXPECT_FALSE(cache.insert(make_synthetic_artifact("fft", "2.0", 150)));
  EXPECT_EQ(cache.lookup("fft")->version, "1.0");
  EXPECT_TRUE(cache.is_pinned("fft"));
  EXPECT_EQ(cache.stats().rejected_pinned, 1u);
  cache.unpin("fft");
  EXPECT_TRUE(cache.insert(make_synthetic_artifact("fft", "2.0", 150)));
  EXPECT_EQ(cache.lookup("fft")->version, "2.0");
}

TEST(Cache, ReplacementTooLargeKeepsOldVersion) {
  ModuleCache cache(200);
  cache.insert(make_synthetic_artifact("fft", "1.0", 100));
  EXPECT_FALSE(cache.insert(make_synthetic_artifact("fft", "2.0", 500)));
  EXPECT_EQ(cache.lookup("fft")->version, "1.0");  // not lost
}

TEST(Cache, DoublePinCountsAreRespected) {
  ModuleCache cache(100);
  cache.insert(make_synthetic_artifact("m", "1", 50));
  cache.pin("m");
  cache.pin("m");
  cache.unpin("m");
  EXPECT_TRUE(cache.is_pinned("m"));
  cache.unpin("m");
  EXPECT_FALSE(cache.is_pinned("m"));
}

// ----------------------------------------------------------- code exchange

TEST(CodeExchange, FetchLatestOverSim) {
  net::SimNetwork net({}, 1);
  auto& ta = net.add_node();
  auto& tb = net.add_node();

  ModuleRepository repo;
  repo.put(make_synthetic_artifact("fft", "1.0", 5000));
  repo.put(make_synthetic_artifact("fft", "1.5", 5000));

  CodeExchange owner(ta);
  owner.serve_from(&repo);
  ta.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    owner.on_frame(f, std::move(fr));
  });

  CodeExchange runner(tb);
  tb.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    runner.on_frame(f, std::move(fr));
  });

  std::optional<ModuleArtifact> got;
  runner.fetch(ta.local(), "fft", "", [&](std::optional<ModuleArtifact> a) {
    got = std::move(a);
  });
  net.run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, "1.5");
  EXPECT_EQ(got->size_bytes(), 5000u);
  EXPECT_EQ(owner.stats().requests_served, 1u);
  EXPECT_EQ(runner.stats().artifacts_received, 1u);
}

TEST(CodeExchange, MissingModuleYieldsNullopt) {
  net::SimNetwork net({}, 1);
  auto& ta = net.add_node();
  auto& tb = net.add_node();
  ModuleRepository repo;
  CodeExchange owner(ta);
  owner.serve_from(&repo);
  ta.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    owner.on_frame(f, std::move(fr));
  });
  CodeExchange runner(tb);
  tb.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    runner.on_frame(f, std::move(fr));
  });

  bool called = false;
  runner.fetch(ta.local(), "nothere", "1.0",
               [&](std::optional<ModuleArtifact> a) {
                 called = true;
                 EXPECT_FALSE(a.has_value());
               });
  net.run_all();
  EXPECT_TRUE(called);
  EXPECT_EQ(owner.stats().requests_not_found, 1u);
}

TEST(CodeExchange, NonCodeFramesFallThrough) {
  // The exchange only ever sees kCode: the peer's route table hands every
  // other frame type to its own handler.
  net::SimNetwork net({}, 1);
  auto& ta = net.add_node();
  p2p::PeerNode node(net.add_node(), net.clock());
  CodeExchange ex(node.transport());
  node.route(serial::FrameType::kCode,
             [&](const net::Endpoint& f, serial::Frame fr) {
               ex.on_frame(f, std::move(fr));
             });
  int fell_through = 0;
  node.route(serial::FrameType::kControl,
             [&](const net::Endpoint&, serial::Frame) { ++fell_through; });
  serial::Frame control;
  control.type = serial::FrameType::kControl;
  ta.send(node.endpoint(), std::move(control));
  net.run_all();
  EXPECT_EQ(fell_through, 1);
  EXPECT_EQ(ex.stats().requests_served + ex.stats().requests_not_found, 0u);
}

TEST(CodeExchange, ExactVersionRequest) {
  net::SimNetwork net({}, 1);
  auto& ta = net.add_node();
  auto& tb = net.add_node();
  ModuleRepository repo;
  repo.put(make_synthetic_artifact("fft", "1.0", 100));
  repo.put(make_synthetic_artifact("fft", "2.0", 100));
  CodeExchange owner(ta);
  owner.serve_from(&repo);
  ta.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    owner.on_frame(f, std::move(fr));
  });
  CodeExchange runner(tb);
  tb.set_handler([&](const net::Endpoint& f, serial::Frame fr) {
    runner.on_frame(f, std::move(fr));
  });
  std::optional<ModuleArtifact> got;
  runner.fetch(ta.local(), "fft", "1.0",
               [&](std::optional<ModuleArtifact> a) { got = std::move(a); });
  net.run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, "1.0");
}

TEST(Artifact, DigestMatchesEncodedBytes) {
  const auto a = make_synthetic_artifact("fft", "1.0", 512, {"math"});
  EXPECT_EQ(artifact_digest(a), cas::sha256(encode_artifact(a)));
  // Digest is content-sensitive where the fast hash is too.
  const auto b = make_synthetic_artifact("fft", "1.1", 512, {"math"});
  EXPECT_NE(artifact_digest(a), artifact_digest(b));
  // And round-trips the codec: a fetched copy advertises the same digest.
  EXPECT_EQ(artifact_digest(decode_artifact(encode_artifact(a))),
            artifact_digest(a));
}

// Regression sweep for capacity accounting: across a randomized stream of
// inserts, replacements, pins and releases, resident_bytes() must always
// equal the sum of resident artifact sizes and never exceed the budget.
TEST(Cache, BytesNeverExceedBudgetUnderChurn) {
  constexpr std::size_t kBudget = 10'000;
  ModuleCache cache(kBudget);
  std::uint64_t seed = 42;
  auto next = [&] {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  std::vector<std::string> pinned;
  for (int step = 0; step < 2000; ++step) {
    const std::string name = "mod" + std::to_string(next() % 12);
    switch (next() % 4) {
      case 0:
      case 1: {
        // Sizes straddle the budget so some inserts must evict and some
        // must be rejected outright; versions vary so replacements happen.
        const std::size_t size = 500 + next() % 4000;
        cache.insert(make_synthetic_artifact(
            name, std::to_string(next() % 3), size));
        break;
      }
      case 2:
        if (cache.contains(name) && !cache.is_pinned(name)) {
          cache.pin(name);
          pinned.push_back(name);
        }
        break;
      default:
        cache.release(name);
        break;
    }
    if (pinned.size() > 4) {
      cache.unpin(pinned.front());
      pinned.erase(pinned.begin());
    }

    ASSERT_LE(cache.resident_bytes(), kBudget) << "step " << step;
    // Accounting cross-check: recompute from the entries themselves.
    std::size_t actual = 0;
    for (int m = 0; m < 12; ++m) {
      const std::string n = "mod" + std::to_string(m);
      if (cache.contains(n)) actual += cache.lookup(n)->size_bytes();
    }
    ASSERT_EQ(cache.resident_bytes(), actual) << "step " << step;
  }
}

TEST(Cache, BackingStoreWriteThroughAndMissFallback) {
  cas::ContentStore store;
  ModuleCache cache(1'000'000);
  cache.set_backing_store(&store);

  const auto a = make_synthetic_artifact("fft", "1.0", 4096);
  ASSERT_TRUE(cache.insert(a));
  // Write-through: the encoded artifact is now content-addressed.
  EXPECT_EQ(store.get_ref(cas::ref_key("module/fft")), artifact_digest(a));
  EXPECT_EQ(store.get(artifact_digest(a)), encode_artifact(a));

  // Evict from the LRU; the next lookup falls back to the store.
  ASSERT_TRUE(cache.release("fft"));
  const auto back = cache.lookup("fft");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, a);
  EXPECT_EQ(cache.stats().backing_hits, 1u);
  EXPECT_TRUE(cache.contains("fft"));  // promoted back in

  // Promotion must not have re-written the object (single stored copy).
  EXPECT_EQ(store.stats().puts, 1u);
}

TEST(Cache, BackingStoreSurvivesCacheRebuild) {
  cas::ContentStore store;
  const auto a = make_synthetic_artifact("wave", "2.0", 2048);
  {
    ModuleCache cache(1'000'000);
    cache.set_backing_store(&store);
    cache.insert(a);
  }
  // A fresh cache (restart) over the same store finds the module without
  // any network fetch.
  ModuleCache warm(1'000'000);
  warm.set_backing_store(&store);
  const auto got = warm.lookup("wave");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, a);
  EXPECT_EQ(warm.stats().backing_hits, 1u);
}

}  // namespace
}  // namespace cg::repo
