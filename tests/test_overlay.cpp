// Tests for the structured discovery overlay: node ids and XOR buckets,
// the k-bucket routing table (including churn-driven eviction), the
// sorted attribute index, the overlay RPC codecs, iterative lookup
// convergence, sharded publish/range-query with replica failover, the
// range-query-vs-flooding equivalence oracle, and the expanding-ring
// visited-set fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "churn/availability.hpp"
#include "net/sim_network.hpp"
#include "p2p/attribute_index.hpp"
#include "p2p/discovery.hpp"
#include "p2p/node_id.hpp"
#include "p2p/overlay.hpp"
#include "p2p/peer_node.hpp"
#include "p2p/routing_table.hpp"
#include "serial/reader.hpp"

namespace cg::p2p {
namespace {

// ----------------------------------------------------------------- node id

TEST(NodeIdTest, BucketIndexIsHighestDifferingBit) {
  EXPECT_EQ(bucket_index(1), 0);
  EXPECT_EQ(bucket_index(2), 1);
  EXPECT_EQ(bucket_index(3), 1);
  EXPECT_EQ(bucket_index(0x8000000000000000ull), 63);
}

TEST(NodeIdTest, DerivationIsDeterministic) {
  EXPECT_EQ(node_id_of("peer-7"), node_id_of("peer-7"));
  EXPECT_NE(node_id_of("peer-7"), node_id_of("peer-8"));
  EXPECT_EQ(shard_key(3), shard_key(3));
  EXPECT_NE(shard_key(3), shard_key(4));
}

// ----------------------------------------------------------- routing table

Contact contact(std::uint64_t bits) {
  return Contact{NodeId{bits}, net::Endpoint{"sim:" + std::to_string(bits)}};
}

TEST(RoutingTableTest, ObserveInsertsAndClosestOrders) {
  RoutingTable rt(NodeId{0});
  for (std::uint64_t b : {5ull, 9ull, 200ull, 3ull}) {
    EXPECT_TRUE(rt.observe(contact(b), 0.0));
  }
  EXPECT_EQ(rt.size(), 4u);
  auto cs = rt.closest(NodeId{4}, 2);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].id.bits, 5u);  // 5^4=1, closest to 4
  EXPECT_EQ(cs[1].id.bits, 3u);  // 3^4=7
}

TEST(RoutingTableTest, SelfIsNeverInserted) {
  RoutingTable rt(NodeId{42});
  EXPECT_FALSE(rt.observe(Contact{NodeId{42}, net::Endpoint{"sim:42"}}, 0.0));
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTableTest, FullBucketPrefersLiveIncumbents) {
  RoutingOptions opt;
  opt.k = 2;
  RoutingTable rt(NodeId{0}, opt);
  // Bucket 2 covers distances [4, 8): ids 4..7.
  EXPECT_TRUE(rt.observe(contact(4), 0.0));
  EXPECT_TRUE(rt.observe(contact(5), 0.0));
  // Incumbents are healthy: the newcomer is dropped.
  EXPECT_FALSE(rt.observe(contact(6), 1.0));
  EXPECT_TRUE(rt.contains(NodeId{4}));
  EXPECT_TRUE(rt.contains(NodeId{5}));
  EXPECT_FALSE(rt.contains(NodeId{6}));
}

TEST(RoutingTableTest, FailuresEvictAndMakeRoom) {
  RoutingOptions opt;
  opt.k = 2;
  opt.max_failures = 2;
  RoutingTable rt(NodeId{0}, opt);
  rt.observe(contact(4), 0.0);
  rt.observe(contact(5), 0.0);
  // Two timeouts against 4 (its detector has < 2 samples, so the plain
  // counting policy applies) evict it.
  EXPECT_FALSE(rt.failure(NodeId{4}, 1.0));
  EXPECT_TRUE(rt.failure(NodeId{4}, 2.0));
  EXPECT_FALSE(rt.contains(NodeId{4}));
  EXPECT_EQ(rt.evictions(), 1u);
  // And the bucket has room for the newcomer again.
  EXPECT_TRUE(rt.observe(contact(6), 3.0));
}

TEST(RoutingTableTest, SweepEvictsLongSilence) {
  RoutingOptions opt;
  opt.phi_evict = 4.0;
  RoutingTable rt(NodeId{0}, opt);
  // Heartbeats every second give the detector a tight interval model...
  for (int t = 0; t <= 5; ++t) rt.observe(contact(9), t);
  EXPECT_TRUE(rt.sweep(6.5).empty());  // short silence: still fine
  // ...so a 100 s silence scores far above the bar.
  auto evicted = rt.sweep(100.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.bits, 9u);
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTableTest, TouchKeepsContactAlive) {
  RoutingOptions opt;
  opt.phi_evict = 4.0;
  RoutingTable rt(NodeId{0}, opt);
  for (int t = 0; t <= 5; ++t) rt.observe(contact(9), t);
  // Passive evidence at t=99 resets the silence without polluting the
  // interval history.
  rt.touch(NodeId{9}, 99.0);
  EXPECT_TRUE(rt.sweep(100.0).empty());
  EXPECT_TRUE(rt.contains(NodeId{9}));
}

TEST(RoutingTableTest, ObserveCandidateNeverEvicts) {
  RoutingOptions opt;
  opt.k = 1;
  RoutingTable rt(NodeId{0}, opt);
  rt.observe(contact(4), 0.0);
  EXPECT_FALSE(rt.observe_candidate(contact(5), 1.0));  // bucket full
  EXPECT_TRUE(rt.contains(NodeId{4}));
  EXPECT_TRUE(rt.observe_candidate(contact(16), 1.0));  // other bucket
}

TEST(RoutingTableTest, RefreshTargetsLandInStaleBuckets) {
  RoutingOptions opt;
  opt.refresh_interval_s = 10.0;
  RoutingTable rt(NodeId{0}, opt);
  rt.observe(contact(4), 0.0);    // bucket 2
  rt.observe(contact(100), 0.0);  // bucket 6
  rt.touch(NodeId{100}, 95.0);    // bucket 6 stays fresh
  auto targets = rt.refresh_targets(100.0, 7);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(bucket_index(xor_distance(targets[0], NodeId{0})), 2);
  // Marked refreshed: asking again immediately yields nothing.
  EXPECT_TRUE(rt.refresh_targets(100.0, 7).empty());
}

// --------------------------------------------------------- attribute index

Advertisement cpu_advert(const std::string& id, double cpu_mhz,
                         double expires = 1000.0) {
  Advertisement a;
  a.kind = AdvertKind::kPeer;
  a.id = id;
  a.name = id;
  a.provider = net::Endpoint{"sim:0"};
  a.attrs["cpu_mhz"] = std::to_string(cpu_mhz);
  a.expires_at = expires;
  return a;
}

TEST(AttributeIndexTest, RangeQueryScansOnlyMatchingBand) {
  AttributeIndex idx("cpu_mhz");
  for (int i = 0; i < 10; ++i) {
    idx.put(cpu_advert(std::string("p").append(std::to_string(i)), 500.0 * i),
            0.0);
  }
  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 2000.0;
  auto hits = idx.find(q, 1.0);
  EXPECT_EQ(hits.size(), 6u);  // 2000, 2500, ..., 4500
  for (const auto& a : hits) {
    EXPECT_GE(*a.numeric_attr("cpu_mhz"), 2000.0);
  }
}

TEST(AttributeIndexTest, RefreshReplacesAndExpiryDrops) {
  AttributeIndex idx("cpu_mhz");
  EXPECT_TRUE(idx.put(cpu_advert("p", 1000.0), 0.0));
  EXPECT_FALSE(idx.put(cpu_advert("p", 3000.0), 0.0));  // refresh
  EXPECT_EQ(idx.size(), 1u);
  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 2000.0;
  EXPECT_EQ(idx.find(q, 1.0).size(), 1u);

  idx.put(cpu_advert("short", 2500.0, /*expires=*/5.0), 0.0);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.purge(10.0), 1u);  // "short" has expired
  EXPECT_EQ(idx.size(), 1u);
}

TEST(AttributeIndexTest, MissingPrimarySurvivesExactQueries) {
  AttributeIndex idx("cpu_mhz");
  Advertisement a;
  a.kind = AdvertKind::kModule;
  a.id = "module:x";
  a.name = "fft";
  a.provider = net::Endpoint{"sim:1"};
  a.expires_at = 100.0;
  idx.put(a, 0.0);
  Query q;
  q.kind = AdvertKind::kModule;
  q.name = "fft";
  EXPECT_EQ(idx.find(q, 1.0).size(), 1u);
}

// ----------------------------------------------------------------- codecs

TEST(OverlayMessages, FindNodeRoundTrip) {
  FindNodeMsg m;
  m.rpc_id = 11;
  m.origin = net::Endpoint{"sim:2"};
  m.target = 0xDEADBEEFull;
  m.trace = obs::TraceContext{7, 8, 9};
  auto f = encode(m);
  EXPECT_EQ(discovery_type(f), DiscoveryMsgType::kFindNode);
  auto back = decode_find_node(f);
  EXPECT_EQ(back.rpc_id, 11u);
  EXPECT_EQ(back.origin.value, "sim:2");
  EXPECT_EQ(back.target, 0xDEADBEEFull);
  EXPECT_EQ(back.trace, m.trace);
}

TEST(OverlayMessages, FindNodeReplyRoundTrip) {
  FindNodeReplyMsg m;
  m.rpc_id = 12;
  m.from = 99;
  m.contacts.push_back(WireContact{1, net::Endpoint{"sim:1"}});
  m.contacts.push_back(WireContact{2, net::Endpoint{"sim:2"}});
  auto back = decode_find_node_reply(encode(m));
  EXPECT_EQ(back.rpc_id, 12u);
  EXPECT_EQ(back.from, 99u);
  EXPECT_EQ(back.contacts, m.contacts);
}

TEST(OverlayMessages, IndexPutQueryReplyRoundTrip) {
  IndexPutMsg put;
  put.shard = 5;
  put.adverts.push_back(cpu_advert("p1", 2000.0));
  auto pback = decode_index_put(encode(put));
  EXPECT_EQ(pback.shard, 5u);
  EXPECT_EQ(pback.adverts, put.adverts);

  IndexQueryMsg qm;
  qm.rpc_id = 13;
  qm.origin = net::Endpoint{"sim:4"};
  qm.shard = 5;
  qm.limit = 8;
  qm.query.kind = AdvertKind::kPeer;
  qm.query.require_min["cpu_mhz"] = 1500.0;
  auto qback = decode_index_query(encode(qm));
  EXPECT_EQ(qback.rpc_id, 13u);
  EXPECT_EQ(qback.shard, 5u);
  EXPECT_EQ(qback.limit, 8u);
  EXPECT_EQ(qback.query, qm.query);

  IndexReplyMsg rm;
  rm.rpc_id = 13;
  rm.shard = 5;
  rm.adverts.push_back(cpu_advert("p2", 1800.0));
  auto rback = decode_index_reply(encode(rm));
  EXPECT_EQ(rback.rpc_id, 13u);
  EXPECT_EQ(rback.adverts, rm.adverts);
}

TEST(OverlayMessages, WrongSubtypeThrows) {
  FindNodeMsg m;
  m.origin = net::Endpoint{"sim:0"};
  EXPECT_THROW(decode_index_query(encode(m)), serial::DecodeError);
}

// ------------------------------------------------------------ overlay sim

/// Per-bucket bootstrap from a globally sorted id list: bucket b of node x
/// covers the contiguous value range [(x ^ 2^b) with low b bits cleared,
/// +2^b), so sampling it is a binary search -- the same trick the E14
/// bench uses to seed 10^6 tables lazily.
std::vector<Contact> sample_buckets(
    NodeId self,
    const std::vector<std::pair<std::uint64_t, net::Endpoint>>& sorted,
    std::size_t per_bucket) {
  std::vector<Contact> out;
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t mask = (b == 0) ? 0 : ((1ull << b) - 1);
    const std::uint64_t base = (self.bits ^ (1ull << b)) & ~mask;
    const std::uint64_t last = base | mask;
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), base,
        [](const auto& p, std::uint64_t v) { return p.first < v; });
    for (std::size_t n = 0;
         it != sorted.end() && it->first <= last && n < per_bucket;
         ++it, ++n) {
      out.push_back(Contact{NodeId{it->first}, it->second});
    }
  }
  return out;
}

/// N PeerNode+OverlayNode pairs on one SimNetwork, routing tables seeded
/// per-bucket from global knowledge (sparse: a few contacts per bucket).
class OverlaySwarm {
 public:
  explicit OverlaySwarm(std::size_t n, OverlayConfig cfg = {},
                        std::size_t per_bucket = 2, net::LinkParams lp = {},
                        std::uint64_t seed = 1)
      : net_(lp, seed) {
    std::vector<std::pair<std::uint64_t, net::Endpoint>> sorted;
    for (std::size_t i = 0; i < n; ++i) {
      auto& t = net_.add_node();
      nodes_.push_back(std::make_unique<PeerNode>(
          t, net_.clock(), "peer-" + std::to_string(i)));
      sorted.emplace_back(node_id_of(nodes_.back()->id()).bits,
                          nodes_.back()->endpoint());
    }
    std::sort(sorted.begin(), sorted.end());
    cfg.bootstrap = [sorted, per_bucket](NodeId self) {
      return sample_buckets(self, sorted, per_bucket);
    };
    for (std::size_t i = 0; i < n; ++i) {
      overlays_.push_back(
          std::make_unique<OverlayNode>(*nodes_[i], net_.scheduler(), cfg));
    }
  }

  PeerNode& peer(std::size_t i) { return *nodes_[i]; }
  OverlayNode& operator[](std::size_t i) { return *overlays_[i]; }
  std::size_t size() const { return overlays_.size(); }
  net::SimNetwork& net() { return net_; }

 private:
  net::SimNetwork net_;
  std::vector<std::unique_ptr<PeerNode>> nodes_;
  std::vector<std::unique_ptr<OverlayNode>> overlays_;
};

TEST(OverlayLookup, ConvergesToTargetAcrossSparseTables) {
  OverlaySwarm s(128);
  // Every node looks up another node's exact id; the target must be the
  // closest responder (distance 0) every time.
  for (std::size_t i : {0u, 17u, 63u, 90u}) {
    const std::size_t j = (i * 31 + 7) % s.size();
    const NodeId target = s[j].id();
    std::vector<Contact> result;
    bool done = false;
    s[i].lookup(target, [&](std::vector<Contact> cs) {
      result = std::move(cs);
      done = true;
    });
    s.net().run_all();
    ASSERT_TRUE(done) << "lookup from " << i;
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result.front().id, target)
        << "lookup from " << i << " missed node " << j;
  }
}

TEST(OverlayLookup, LonerResolvesToItselfSynchronously) {
  net::SimNetwork net;
  auto& t = net.add_node();
  PeerNode peer(t, net.clock(), "loner");
  OverlayNode overlay(peer, net.scheduler());
  bool done = false;
  // A node with no contacts is still part of its own ring: every id
  // resolves to itself, which is what lets a one-node grid self-host
  // every shard. No RPC is needed, so the handler fires synchronously.
  overlay.lookup(NodeId{1234}, [&](std::vector<Contact> cs) {
    ASSERT_EQ(cs.size(), 1u);
    EXPECT_EQ(cs.front().id, overlay.id());
    done = true;
  });
  EXPECT_TRUE(done);
}

OverlayConfig small_grid_config() {
  OverlayConfig cfg;
  cfg.shards = 4;
  cfg.replication = 2;
  cfg.primary_lo = 0.0;
  cfg.primary_hi = 4000.0;
  return cfg;
}

TEST(OverlayRendezvous, PublishThenRangeQuery) {
  OverlaySwarm s(32, small_grid_config());
  for (std::size_t i = 0; i < s.size(); ++i) s[i].enable_index();

  // Peers 1..8 advertise CPUs 500, 1000, ..., 4000.
  for (std::size_t i = 1; i <= 8; ++i) {
    auto a = s.peer(i).make_peer_advert(
        {{"cpu_mhz", std::to_string(500.0 * i)}});
    s[i].publish({a});
  }
  s.net().run_all();

  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1800.0;
  std::vector<Advertisement> found;
  bool done = false;
  s[0].find(q, SIZE_MAX, [&](std::vector<Advertisement> a) {
    found = std::move(a);
    done = true;
  });
  s.net().run_all();
  ASSERT_TRUE(done);
  EXPECT_EQ(found.size(), 5u);  // 2000, 2500, 3000, 3500, 4000
  for (const auto& a : found) {
    EXPECT_GE(*a.numeric_attr("cpu_mhz"), 1800.0);
  }
}

TEST(OverlayRendezvous, EquivalentToFloodingOracleOnSameAdverts) {
  OverlaySwarm s(64, small_grid_config());
  for (std::size_t i = 0; i < s.size(); ++i) s[i].enable_index();
  // Flooding topology: a ring with chords, every peer reachable in <= 8
  // hops -- flooding at ttl 8 is the exhaustive oracle.
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.peer(i).add_neighbor(s.peer((i + 1) % s.size()).endpoint());
    s.peer((i + 1) % s.size()).add_neighbor(s.peer(i).endpoint());
    s.peer(i).add_neighbor(s.peer((i + 9) % s.size()).endpoint());
    s.peer((i + 9) % s.size()).add_neighbor(s.peer(i).endpoint());
  }
  // Identical advert set on both planes: local cache (flooding's world)
  // and the shard federation (the overlay's).
  for (std::size_t i = 0; i < s.size(); ++i) {
    auto a = s.peer(i).make_peer_advert(
        {{"cpu_mhz", std::to_string(100.0 * static_cast<double>(i))}});
    s.peer(i).publish_local(a);
    s[i].publish({a});
  }
  s.net().run_all();

  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 3000.0;

  std::set<std::string> flood_ids;
  s.peer(5).discover_flood(q, 8, [&](const std::vector<Advertisement>& as) {
    for (const auto& a : as) flood_ids.insert(a.id);
  });
  s.net().run_all();

  std::set<std::string> overlay_ids;
  bool done = false;
  s[5].find(q, SIZE_MAX, [&](std::vector<Advertisement> as) {
    for (const auto& a : as) overlay_ids.insert(a.id);
    done = true;
  });
  s.net().run_all();
  ASSERT_TRUE(done);
  // Peer 5's own advert answers from its local cache in the flooding
  // world; the overlay query returns it too (it was published). The sets
  // must agree exactly.
  EXPECT_EQ(overlay_ids, flood_ids);
  EXPECT_EQ(overlay_ids.size(), 34u);  // peers 30..63: cpu 3000..6300
}

TEST(OverlayRendezvous, FailsOverToLiveReplica) {
  OverlayConfig cfg = small_grid_config();
  cfg.shards = 1;  // one shard: its replica group is easy to pin down
  cfg.replication = 2;
  OverlaySwarm s(16, cfg);
  for (std::size_t i = 0; i < s.size(); ++i) s[i].enable_index();

  auto a = s.peer(3).make_peer_advert({{"cpu_mhz", "2000"}});
  s[3].publish({a});
  s.net().run_all();

  // Pin down the shard's replica group as the publisher resolved it.
  std::vector<Contact> replicas;
  s[3].lookup(shard_key(0), [&](std::vector<Contact> cs) {
    replicas = std::move(cs);
  });
  s.net().run_all();
  ASSERT_GE(replicas.size(), 2u);

  // Kill the primary replica; the querier must fail over to the second.
  const std::uint32_t down =
      static_cast<std::uint32_t>(replicas[0].endpoint.value.find("sim:") == 0
              ? std::stoul(replicas[0].endpoint.value.substr(4))
              : 0);
  s.net().set_up(down, false);

  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1000.0;
  std::vector<Advertisement> found;
  bool done = false;
  s[7].find(q, SIZE_MAX, [&](std::vector<Advertisement> as) {
    found = std::move(as);
    done = true;
  });
  s.net().run_all();
  ASSERT_TRUE(done);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, a.id);
  EXPECT_GE(s[7].stats().rpc_timeouts, 0u);
}

TEST(OverlayChurn, DeadContactIsEvictedViaRpcTimeouts) {
  OverlaySwarm s(32);
  // Take node 9 down from t=5 on (one availability interval [0, 5)).
  net::FaultPlan plan;
  plan.crashes = churn::crash_windows(9, {{0.0, 5.0}});
  s.net().arm_faults(plan, 1);
  const NodeId dead = s[9].id();

  // Warm node 0's table with direct evidence of node 9 before it dies.
  bool warmed = false;
  s[0].lookup(dead, [&](std::vector<Contact>) { warmed = true; });
  s.net().run_all();
  ASSERT_TRUE(warmed);
  ASSERT_TRUE(s[0].routing().contains(dead));

  // After the death, repeated lookups toward its id hit timeouts; the
  // eviction policy (max_failures = 2 before the detector has history)
  // drops it from the table.
  for (int round = 0; round < 3; ++round) {
    s[0].lookup(dead, [](std::vector<Contact>) {});
    s.net().run_all();
    if (!s[0].routing().contains(dead)) break;
  }
  EXPECT_FALSE(s[0].routing().contains(dead));
  EXPECT_GE(s[0].routing().evictions(), 1u);
  EXPECT_GE(s[0].stats().rpc_timeouts, 1u);
}

TEST(OverlayChurn, MaintainSweepsAndRefreshes) {
  RoutingOptions ro;
  ro.phi_evict = 4.0;
  ro.refresh_interval_s = 30.0;
  OverlayConfig cfg;
  cfg.routing = ro;
  OverlaySwarm s(16, cfg);
  // Give node 0 a heartbeat cadence for node 5's contact, then let it
  // fall silent far past the modelled interval.
  const Contact c{s[5].id(), s.peer(5).endpoint()};
  for (int t = 0; t <= 5; ++t) s[0].routing().observe(c, t);
  const std::size_t evicted = s[0].maintain(/*now=*/500.0, /*seed=*/3);
  EXPECT_GE(evicted, 1u);
  EXPECT_FALSE(s[0].routing().contains(c.id));
  s.net().run_all();  // let refresh lookups drain
}

// --------------------------------------------- expanding-ring visited set

TEST(ExpandingRingFix, WiderRingsWidenInsteadOfReFlooding) {
  // Line 0-1-2-3-4-5 with adverts at nodes 1 and 3: min_results=2 forces
  // the ring to widen past node 1's answer. Re-arrivals at node 1 must
  // register as widened, not as fresh queries, and the origin must not
  // collect duplicate adverts even though node 1 re-answers each ring
  // (re-answering is deliberate: caches can gain matches mid-search).
  net::LinkParams lp;
  net::SimNetwork net(lp, 1);
  std::vector<std::unique_ptr<PeerNode>> nodes;
  for (int i = 0; i < 6; ++i) {
    auto& t = net.add_node();
    nodes.push_back(std::make_unique<PeerNode>(
        t, net.clock(), "peer-" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 6; ++i) {
    nodes[i]->add_neighbor(nodes[i + 1]->endpoint());
    nodes[i + 1]->add_neighbor(nodes[i]->endpoint());
  }
  nodes[1]->publish_local(nodes[1]->make_peer_advert({}));
  nodes[3]->publish_local(nodes[3]->make_peer_advert({}));

  Query q;
  q.kind = AdvertKind::kPeer;
  ExpandingRingOptions opt;
  opt.initial_ttl = 1;
  opt.max_ttl = 8;
  opt.ring_timeout_s = 1.0;
  opt.min_results = 2;

  auto scheduler = net.scheduler();
  SearchResult result;
  bool done = false;
  auto search = std::make_shared<ExpandingRingSearch>(*nodes[0], scheduler, q,
                                                      opt);
  search->start([&](SearchResult r) {
    result = std::move(r);
    done = true;
  });
  net.run_all();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.adverts.size(), 2u);
  EXPECT_EQ(result.succeeded_at_ttl, 4);
  // Node 1 sat inside every ring: the re-arrivals widened its stored
  // frontier instead of counting (and flooding) as fresh queries.
  EXPECT_GE(nodes[1]->stats().widened_queries, 1u);
  EXPECT_EQ(nodes[1]->stats().queries_received, 1u);
  // No duplicate results despite node 1 answering more than one ring.
  std::set<std::string> ids;
  for (const auto& a : result.adverts) ids.insert(a.id);
  EXPECT_EQ(ids.size(), result.adverts.size());
}

}  // namespace
}  // namespace cg::p2p
