// Tests for the cg_p2p layer: advertisement XML round-trips and matching,
// the TTL cache, discovery message codecs, flooding / rendezvous /
// expanding-ring discovery over the simulated network, and named pipes.
#include <gtest/gtest.h>

#include <set>

#include "net/reliable.hpp"
#include "net/sim_network.hpp"
#include "p2p/cache.hpp"
#include "p2p/discovery.hpp"
#include "p2p/peer_node.hpp"
#include "p2p/pipes.hpp"
#include "repo/code_exchange.hpp"
#include "serial/reader.hpp"

namespace cg::p2p {
namespace {

Advertisement make_advert(AdvertKind kind, const std::string& id,
                          const std::string& name, double expires,
                          std::map<std::string, std::string> attrs = {}) {
  Advertisement a;
  a.kind = kind;
  a.id = id;
  a.name = name;
  a.provider = net::Endpoint{"sim:0"};
  a.attrs = std::move(attrs);
  a.expires_at = expires;
  return a;
}

// ----------------------------------------------------------------- adverts

TEST(Advert, XmlRoundTrip) {
  auto a = make_advert(AdvertKind::kPeer, "peer:x", "x", 120.5,
                       {{"cpu_mhz", "2000"}, {"free_mem_mb", "256"}});
  Advertisement back = Advertisement::from_xml(a.to_xml());
  EXPECT_EQ(back, a);
}

TEST(Advert, NumericAttr) {
  auto a = make_advert(AdvertKind::kPeer, "p", "p", 1.0,
                       {{"cpu_mhz", "1500"}, {"os", "linux"}});
  EXPECT_DOUBLE_EQ(*a.numeric_attr("cpu_mhz"), 1500.0);
  EXPECT_FALSE(a.numeric_attr("os").has_value());
  EXPECT_FALSE(a.numeric_attr("missing").has_value());
}

TEST(Advert, KindNamesRoundTrip) {
  for (auto k : {AdvertKind::kPeer, AdvertKind::kPipe, AdvertKind::kModule}) {
    EXPECT_EQ(advert_kind_from_name(advert_kind_name(k)), k);
  }
  EXPECT_THROW(advert_kind_from_name("bogus"), xml::XmlError);
}

TEST(Advert, FromXmlRejectsWrongElement) {
  EXPECT_THROW(Advertisement::from_xml(xml::Node("notadvert")),
               xml::XmlError);
}

TEST(Query, MatchesKindNameAndAttrs) {
  auto a = make_advert(AdvertKind::kPeer, "p", "host-1", 100.0,
                       {{"cpu_mhz", "2000"}, {"os", "linux"}});
  Query q;
  q.kind = AdvertKind::kPeer;
  EXPECT_TRUE(q.matches(a));

  q.name = "host-2";
  EXPECT_FALSE(q.matches(a));
  q.name = "host-1";
  EXPECT_TRUE(q.matches(a));

  q.require_equal["os"] = "linux";
  EXPECT_TRUE(q.matches(a));
  q.require_equal["os"] = "windows";
  EXPECT_FALSE(q.matches(a));
  q.require_equal.clear();

  q.require_min["cpu_mhz"] = 1000.0;
  EXPECT_TRUE(q.matches(a));
  q.require_min["cpu_mhz"] = 3000.0;
  EXPECT_FALSE(q.matches(a));

  q.require_min = {{"nonexistent", 1.0}};
  EXPECT_FALSE(q.matches(a));
}

TEST(Query, KindMismatchNeverMatches) {
  auto a = make_advert(AdvertKind::kPipe, "p", "n", 100.0);
  Query q;
  q.kind = AdvertKind::kModule;
  q.name = "n";
  EXPECT_FALSE(q.matches(a));
}

TEST(Query, XmlRoundTrip) {
  Query q;
  q.kind = AdvertKind::kPipe;
  q.name = "conn-42";
  q.require_equal["version"] = "1.2";
  q.require_min["cpu_mhz"] = 1234.5;
  Query back = Query::from_xml(q.to_xml());
  EXPECT_EQ(back, q);
}

// ------------------------------------------------------------------- cache

TEST(Cache, PutFindAndRefresh) {
  AdvertisementCache c(16);
  auto a = make_advert(AdvertKind::kPeer, "p1", "one", 100.0);
  EXPECT_TRUE(c.put(a, 0.0));
  EXPECT_FALSE(c.put(a, 1.0));  // refresh, not new
  Query q;
  q.kind = AdvertKind::kPeer;
  EXPECT_EQ(c.find(q, 10.0).size(), 1u);
}

TEST(Cache, ExpiryHidesAndPurges) {
  AdvertisementCache c(16);
  c.put(make_advert(AdvertKind::kPeer, "p1", "one", 5.0), 0.0);
  c.put(make_advert(AdvertKind::kPeer, "p2", "two", 50.0), 0.0);
  Query q;
  q.kind = AdvertKind::kPeer;
  EXPECT_EQ(c.find(q, 1.0).size(), 2u);
  EXPECT_EQ(c.find(q, 10.0).size(), 1u);  // p1 stale, lazily dropped
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.purge(100.0), 1u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(Cache, GetById) {
  AdvertisementCache c(4);
  c.put(make_advert(AdvertKind::kModule, "m1", "fft", 10.0), 0.0);
  EXPECT_NE(c.get("m1", 1.0), nullptr);
  EXPECT_EQ(c.get("m1", 11.0), nullptr);  // stale
  EXPECT_EQ(c.get("nope", 1.0), nullptr);
}

TEST(Cache, CapacityEvictsClosestToExpiry) {
  AdvertisementCache c(2);
  c.put(make_advert(AdvertKind::kPeer, "soon", "a", 10.0), 0.0);
  c.put(make_advert(AdvertKind::kPeer, "late", "b", 100.0), 0.0);
  c.put(make_advert(AdvertKind::kPeer, "mid", "c", 50.0), 0.0);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.get("soon", 1.0), nullptr);  // evicted
  EXPECT_NE(c.get("late", 1.0), nullptr);
  EXPECT_NE(c.get("mid", 1.0), nullptr);
}

TEST(Cache, DropProvider) {
  AdvertisementCache c(8);
  auto a = make_advert(AdvertKind::kPipe, "x1", "p", 100.0);
  a.provider = net::Endpoint{"sim:7"};
  auto b = make_advert(AdvertKind::kPipe, "x2", "q", 100.0);
  b.provider = net::Endpoint{"sim:8"};
  c.put(a, 0.0);
  c.put(b, 0.0);
  EXPECT_EQ(c.drop_provider(net::Endpoint{"sim:7"}), 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Cache, FindHonoursLimit) {
  AdvertisementCache c(32);
  for (int i = 0; i < 10; ++i) {
    c.put(make_advert(AdvertKind::kPeer,
                      std::string("p").append(std::to_string(i)), "n", 100.0),
          0.0);
  }
  Query q;
  q.kind = AdvertKind::kPeer;
  EXPECT_EQ(c.find(q, 1.0, 3).size(), 3u);
}

// ---------------------------------------------------------------- messages

TEST(Messages, QueryRoundTrip) {
  QueryMsg m;
  m.query_id = 77;
  m.origin = net::Endpoint{"sim:3"};
  m.ttl = 5;
  m.query.kind = AdvertKind::kPipe;
  m.query.name = "conn-1";
  auto f = encode(m);
  EXPECT_EQ(f.type, serial::FrameType::kDiscovery);
  EXPECT_EQ(discovery_type(f), DiscoveryMsgType::kQuery);
  auto back = decode_query(f);
  EXPECT_EQ(back.query_id, 77u);
  EXPECT_EQ(back.origin.value, "sim:3");
  EXPECT_EQ(back.ttl, 5);
  EXPECT_EQ(back.query, m.query);
}

TEST(Messages, ResponseRoundTrip) {
  ResponseMsg m;
  m.query_id = 9;
  m.adverts.push_back(make_advert(AdvertKind::kPeer, "p", "n", 10.0));
  auto back = decode_response(encode(m));
  EXPECT_EQ(back.query_id, 9u);
  ASSERT_EQ(back.adverts.size(), 1u);
  EXPECT_EQ(back.adverts[0], m.adverts[0]);
}

TEST(Messages, PublishRoundTrip) {
  PublishMsg m;
  for (int i = 0; i < 3; ++i) {
    m.adverts.push_back(make_advert(AdvertKind::kModule,
                                    "m" + std::to_string(i), "fft", 10.0));
  }
  auto back = decode_publish(encode(m));
  EXPECT_EQ(back.adverts, m.adverts);
}

TEST(Messages, TypeMismatchThrows) {
  QueryMsg m;
  m.origin = net::Endpoint{"sim:0"};
  auto f = encode(m);
  EXPECT_THROW(decode_response(f), serial::DecodeError);
}

TEST(Messages, UnknownSubtypeIsAMalformedFrame) {
  // Over the reliable layer, as every service peer runs: a discovery frame
  // whose subtype is not a query, response or publish (or that has no
  // subtype byte at all) is counted as malformed, and the peer still
  // answers a valid query afterwards.
  net::SimNetwork net({}, 1);
  auto& t0 = net.add_node();
  auto& t1 = net.add_node();
  net::ReliableTransport r0(t0, net.clock(), net.scheduler());
  net::ReliableTransport r1(t1, net.clock(), net.scheduler());
  PeerNode asker(r0, net.clock(), "asker");
  PeerNode answerer(r1, net.clock(), "answerer");
  asker.add_neighbor(answerer.endpoint());
  answerer.publish_local(answerer.make_peer_advert({}));

  const std::vector<serial::Bytes> bad = {{0}, {4}, {8}, {255}, {}};
  for (const auto& payload : bad) {
    serial::Frame f;
    f.type = serial::FrameType::kDiscovery;
    f.payload = payload;
    r0.send(answerer.endpoint(), f);
  }
  net.run_all();
  EXPECT_EQ(r1.stats().malformed_dropped, bad.size());
  EXPECT_EQ(r1.stats().delivered, bad.size());
  EXPECT_EQ(answerer.stats().queries_received, 0u);

  Query q;
  q.kind = AdvertKind::kPeer;
  std::vector<Advertisement> found;
  asker.discover_flood(q, 1, [&](const std::vector<Advertisement>& a) {
    found.insert(found.end(), a.begin(), a.end());
  });
  net.run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, answerer.endpoint());
  EXPECT_EQ(r1.stats().malformed_dropped, bad.size());
}

// ----------------------------------------------------- discovery in the sim

/// Test fixture: a line/ring/star of PeerNodes on a SimNetwork.
class Swarm {
 public:
  explicit Swarm(std::size_t n, net::LinkParams lp = {}, std::uint64_t seed = 1)
      : net_(lp, seed) {
    for (std::size_t i = 0; i < n; ++i) {
      auto& t = net_.add_node();
      nodes_.push_back(std::make_unique<PeerNode>(
          t, net_.clock(), "peer-" + std::to_string(i)));
    }
  }

  void connect(std::size_t a, std::size_t b) {
    nodes_[a]->add_neighbor(nodes_[b]->endpoint());
    nodes_[b]->add_neighbor(nodes_[a]->endpoint());
  }

  void make_line() {
    for (std::size_t i = 0; i + 1 < nodes_.size(); ++i) connect(i, i + 1);
  }

  PeerNode& operator[](std::size_t i) { return *nodes_[i]; }
  net::SimNetwork& net() { return net_; }
  Scheduler scheduler() { return net_.scheduler(); }

 private:
  net::SimNetwork net_;
  std::vector<std::unique_ptr<PeerNode>> nodes_;
};

TEST(Flooding, FindsAdvertWithinTtl) {
  Swarm s(5);
  s.make_line();  // 0-1-2-3-4
  s[4].publish_local(s[4].make_peer_advert({{"cpu_mhz", "2000"}}));

  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1000.0;

  std::vector<Advertisement> found;
  s[0].discover_flood(q, 4, [&](const std::vector<Advertisement>& a) {
    found.insert(found.end(), a.begin(), a.end());
  });
  s.net().run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, s[4].endpoint());
}

TEST(Flooding, TtlLimitsReach) {
  Swarm s(5);
  s.make_line();
  s[4].publish_local(s[4].make_peer_advert({}));

  Query q;
  q.kind = AdvertKind::kPeer;
  std::size_t found = 0;
  // TTL 3 reaches node 3 but not node 4 (hops: 1->1, 2->2, 3->3).
  s[0].discover_flood(q, 3, [&](const std::vector<Advertisement>& a) {
    found += a.size();
  });
  s.net().run_all();
  EXPECT_EQ(found, 0u);
}

TEST(Flooding, LocalCacheAnswersSynchronously) {
  Swarm s(2);
  s.make_line();
  s[0].publish_local(s[0].make_peer_advert({}));
  Query q;
  q.kind = AdvertKind::kPeer;
  std::size_t found = 0;
  s[0].discover_flood(q, 0, [&](const std::vector<Advertisement>& a) {
    found += a.size();
  });
  EXPECT_EQ(found, 1u);  // before any event ran
}

TEST(Flooding, DuplicateSuppressionOnRing) {
  Swarm s(4);
  s.make_line();
  s.connect(3, 0);  // close the ring
  Query q;
  q.kind = AdvertKind::kPeer;
  q.name = "no-such-peer";
  s[0].discover_flood(q, 8, [&](const std::vector<Advertisement>&) {});
  s.net().run_all();
  // With dedup, total query messages is bounded by edges*2 regardless of
  // the generous TTL.
  std::uint64_t dups = 0;
  for (int i = 0; i < 4; ++i) dups += s[i].stats().duplicate_queries;
  EXPECT_GT(dups, 0u);
  EXPECT_LE(s.net().stats().messages_sent, 2u * 4u * 2u);
}

TEST(Flooding, CancelStopsResponses) {
  Swarm s(3);
  s.make_line();
  s[2].publish_local(s[2].make_peer_advert({}));
  Query q;
  q.kind = AdvertKind::kPeer;
  std::size_t calls = 0;
  auto id = s[0].discover_flood(q, 3, [&](const std::vector<Advertisement>&) {
    ++calls;
  });
  s[0].cancel(id);
  s.net().run_all();
  EXPECT_EQ(calls, 0u);
}

TEST(Flooding, ResponseWarmsOriginCache) {
  Swarm s(3);
  s.make_line();
  s[2].publish_local(s[2].make_pipe_advert("conn-9"));
  Query q;
  q.kind = AdvertKind::kPipe;
  q.name = "conn-9";
  s[0].discover_flood(q, 2, [](const std::vector<Advertisement>&) {});
  s.net().run_all();
  // A second lookup is now answered locally.
  EXPECT_EQ(s[0].find_local(q).size(), 1u);
}

TEST(Flooding, SequentialQueriesStayWithinTwiceTheEdges) {
  // 50 back-to-back floods over a 4-cycle: duplicate suppression keeps
  // each one to at most 2*edges messages.
  Swarm s(4);
  s.make_line();
  s.connect(3, 0);
  Query q;
  q.kind = AdvertKind::kPeer;
  q.name = "nothing";
  for (int i = 0; i < 50; ++i) {
    s[0].discover_flood(q, 4, [](const std::vector<Advertisement>&) {});
    s.net().run_all();
  }
  EXPECT_LE(s.net().stats().messages_sent, 50u * 2u * 4u);
}

TEST(Flooding, SeenSetForgetsTheOldestQueryPastCapacity) {
  // The neighbour remembers PeerNode::kSeenQueryCapacity query ids; one
  // more distinct query pushes out the oldest, so re-issuing that id is
  // news to it again, while the newest id is still a duplicate.
  Swarm s(2);
  s.make_line();
  Query q;
  q.kind = AdvertKind::kPeer;
  q.name = "nothing";
  const auto ignore = [](const std::vector<Advertisement>&) {};
  const std::size_t distinct = PeerNode::kSeenQueryCapacity + 1;
  std::uint64_t first = 0, last = 0;
  for (std::size_t i = 0; i < distinct; ++i) {
    last = s[0].discover_flood(q, 1, ignore);
    if (i == 0) first = last;
    s.net().run_all();
  }
  ASSERT_EQ(s[1].stats().queries_received, distinct);

  s[0].discover_flood(q, 1, ignore, last);
  s.net().run_all();
  EXPECT_EQ(s[1].stats().duplicate_queries, 1u);

  s[0].discover_flood(q, 1, ignore, first);
  s.net().run_all();
  EXPECT_EQ(s[1].stats().duplicate_queries, 1u);
  EXPECT_EQ(s[1].stats().queries_received, distinct + 1);
}

TEST(Flooding, SeenSetForgetsQueriesPastTheHorizon) {
  // The neighbour remembers a query id for PeerNode::kSeenQueryHorizonS
  // after it first arrived. A wider ring inside that horizon still only
  // widens; once the horizon has passed, the same id is a new query.
  Swarm s(2);
  s.make_line();
  Query q;
  q.kind = AdvertKind::kPeer;
  q.name = "nothing";
  const auto ignore = [](const std::vector<Advertisement>&) {};
  const std::uint64_t id = s[0].discover_flood(q, 1, ignore);
  s.net().run_all();
  const double first_arrival = s.net().now();
  ASSERT_EQ(s[1].stats().queries_received, 1u);

  // One second before the horizon, allowing for the link's latency.
  s.net().run_until(first_arrival + PeerNode::kSeenQueryHorizonS - 1.0);
  s[0].discover_flood(q, 2, ignore, id);
  s.net().run_all();
  ASSERT_LT(s.net().now(), first_arrival + PeerNode::kSeenQueryHorizonS);
  EXPECT_EQ(s[1].stats().widened_queries, 1u);
  EXPECT_EQ(s[1].stats().queries_received, 1u);

  s.net().run_until(first_arrival + PeerNode::kSeenQueryHorizonS);
  s[0].discover_flood(q, 2, ignore, id);
  s.net().run_all();
  EXPECT_EQ(s[1].stats().queries_received, 2u);
  EXPECT_EQ(s[1].stats().widened_queries, 1u);
  EXPECT_EQ(s[1].stats().duplicate_queries, 0u);
}

TEST(Rendezvous, PublishThenQuery) {
  Swarm s(4);
  // Node 0 is the rendezvous; 1..3 are edge peers, no overlay edges at all.
  s[0].set_rendezvous_role(true);
  for (int i = 1; i < 4; ++i) s[i].add_rendezvous(s[0].endpoint());

  s[1].publish_to(s[0].endpoint(),
                  {s[1].make_peer_advert({{"cpu_mhz", "1800"}})});
  s.net().run_all();

  Query q;
  q.kind = AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1500.0;
  std::vector<Advertisement> found;
  s[3].discover_rendezvous(q, [&](const std::vector<Advertisement>& a) {
    found.insert(found.end(), a.begin(), a.end());
  });
  s.net().run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, s[1].endpoint());
}

TEST(Rendezvous, FansOutToFellowRendezvous) {
  Swarm s(4);
  // Two rendezvous (0, 1) knowing each other; peer 2 publishes to rdv 1,
  // peer 3 queries rdv 0.
  s[0].set_rendezvous_role(true);
  s[1].set_rendezvous_role(true);
  s[0].add_rendezvous(s[1].endpoint());
  s[1].add_rendezvous(s[0].endpoint());
  s[2].add_rendezvous(s[1].endpoint());
  s[3].add_rendezvous(s[0].endpoint());

  s[2].publish_to(s[1].endpoint(), {s[2].make_peer_advert({})});
  s.net().run_all();

  Query q;
  q.kind = AdvertKind::kPeer;
  std::vector<Advertisement> found;
  s[3].discover_rendezvous(q, [&](const std::vector<Advertisement>& a) {
    found.insert(found.end(), a.begin(), a.end());
  });
  s.net().run_all();
  ASSERT_GE(found.size(), 1u);
  EXPECT_EQ(found[0].provider, s[2].endpoint());
}

TEST(Rendezvous, PlainPeerRefusesPublish) {
  // Line 0-1-2; node 1 is a plain peer holding its own advert. Node 2
  // pushes a peer and a pipe advert at it anyway: node 1 must neither
  // cache them nor hand them out to node 0's queries.
  Swarm s(3);
  s.make_line();
  s[1].publish_local(s[1].make_peer_advert({}));

  // Distinct advert ids node 0 learns (its own cache, warmed by earlier
  // answers, replies too).
  const auto answers = [&](AdvertKind kind) {
    Query q;
    q.kind = kind;
    std::set<std::string> ids;
    const auto id =
        s[0].discover_flood(q, 1, [&](const std::vector<Advertisement>& a) {
          for (const auto& ad : a) ids.insert(ad.id);
        });
    s.net().run_all();
    s[0].cancel(id);
    return ids;
  };
  const auto peers_before = answers(AdvertKind::kPeer);
  const auto pipes_before = answers(AdvertKind::kPipe);
  ASSERT_EQ(peers_before, std::set<std::string>{"peer:peer-1"});
  EXPECT_TRUE(pipes_before.empty());

  s[2].publish_to(s[1].endpoint(), {s[2].make_peer_advert({}),
                                    s[2].make_pipe_advert("data-in")});
  s.net().run_all();
  EXPECT_EQ(s[1].stats().publishes_refused, 1u);
  EXPECT_EQ(s[1].stats().publishes_received, 0u);
  EXPECT_EQ(s[1].cache().size(), 1u);
  EXPECT_EQ(answers(AdvertKind::kPeer), peers_before);
  EXPECT_EQ(answers(AdvertKind::kPipe), pipes_before);
}

TEST(ExpandingRing, StopsAtFirstSufficientTtl) {
  Swarm s(6);
  s.make_line();
  s[2].publish_local(s[2].make_peer_advert({}));

  Query q;
  q.kind = AdvertKind::kPeer;
  ExpandingRingOptions opt;
  opt.initial_ttl = 1;
  opt.max_ttl = 8;
  opt.ring_timeout_s = 1.0;

  SearchResult result;
  bool done = false;
  auto search = std::make_shared<ExpandingRingSearch>(s[0], s.scheduler(), q,
                                                      opt);
  search->start([&](SearchResult r) {
    result = std::move(r);
    done = true;
  });
  s.net().run_all();
  ASSERT_TRUE(done);
  ASSERT_EQ(result.adverts.size(), 1u);
  EXPECT_EQ(result.succeeded_at_ttl, 2);
  EXPECT_EQ(result.rings_issued, 2);  // ttl=1 missed, ttl=2 hit
}

TEST(ExpandingRing, GivesUpAtMaxTtl) {
  Swarm s(3);
  s.make_line();
  Query q;
  q.kind = AdvertKind::kModule;
  q.name = "nowhere";
  ExpandingRingOptions opt;
  opt.initial_ttl = 1;
  opt.max_ttl = 4;
  opt.ring_timeout_s = 0.5;

  bool done = false;
  SearchResult result;
  auto search = std::make_shared<ExpandingRingSearch>(s[0], s.scheduler(), q,
                                                      opt);
  search->start([&](SearchResult r) {
    result = std::move(r);
    done = true;
  });
  s.net().run_all();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.adverts.empty());
  EXPECT_EQ(result.succeeded_at_ttl, 0);
  EXPECT_GE(result.rings_issued, 3);  // 1, 2, 4
}

TEST(ExpandingRing, CompletesImmediatelyFromLocalCache) {
  Swarm s(2);
  s.make_line();
  s[0].publish_local(s[0].make_peer_advert({}));
  Query q;
  q.kind = AdvertKind::kPeer;
  bool done = false;
  auto search = std::make_shared<ExpandingRingSearch>(s[0], s.scheduler(), q,
                                                      ExpandingRingOptions{});
  search->start([&](SearchResult r) {
    done = true;
    EXPECT_EQ(r.adverts.size(), 1u);
    EXPECT_EQ(r.succeeded_at_ttl, 1);
  });
  s.net().run_all();
  EXPECT_TRUE(done);
}

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

// -------------------------------------------------------------------- pipes

TEST(Pipes, AdvertiseBindSend) {
  Swarm s(3);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps2(s[2], s.scheduler());

  std::string got;
  ps2.advertise_input("conn-1",
                      [&](const net::Endpoint&, serial::Bytes payload) {
                        got = serial::to_string(payload);
                      });

  OutputPipe pipe;
  ps0.bind_output("conn-1", [&](OutputPipe p) { pipe = std::move(p); });
  s.net().run_all();
  ASSERT_TRUE(pipe.bound());
  EXPECT_EQ(pipe.target, s[2].endpoint());

  ps0.send(pipe, serial::to_bytes("payload!"));
  s.net().run_all();
  EXPECT_EQ(got, "payload!");
  EXPECT_EQ(ps0.stats().payloads_sent, 1u);
  EXPECT_EQ(ps2.stats().payloads_received, 1u);
}

TEST(Pipes, BindFailsCleanlyWhenAbsent) {
  Swarm s(2);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  bool called = false;
  ExpandingRingOptions ring;
  ring.max_ttl = 2;
  ring.ring_timeout_s = 0.2;
  ps0.bind_output("ghost-pipe", [&](OutputPipe p) {
    called = true;
    EXPECT_FALSE(p.bound());
  }, ring);
  s.net().run_all();
  EXPECT_TRUE(called);
}

TEST(Pipes, SendOnUnboundThrows) {
  Swarm s(1);
  PipeServe ps(s[0], s.scheduler());
  OutputPipe p;
  p.name = "x";
  EXPECT_THROW(ps.send(p, {}), std::logic_error);
}

TEST(Pipes, UnknownPipePayloadCounted) {
  Swarm s(2);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps1(s[1], s.scheduler());
  OutputPipe p{"never-advertised", s[1].endpoint()};
  ps0.send(p, serial::to_bytes("lost"));
  s.net().run_all();
  EXPECT_EQ(ps1.stats().payloads_for_unknown_pipe, 1u);
  EXPECT_EQ(ps1.stats().payloads_received, 0u);
}

TEST(Pipes, RemoveInputStopsDelivery) {
  Swarm s(2);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps1(s[1], s.scheduler());
  int got = 0;
  ps1.advertise_input("c", [&](const net::Endpoint&, serial::Bytes) { ++got; });
  OutputPipe p{"c", s[1].endpoint()};
  ps0.send(p, serial::to_bytes("1"));
  s.net().run_all();
  ps1.remove_input("c");
  ps0.send(p, serial::to_bytes("2"));
  s.net().run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ps1.stats().payloads_for_unknown_pipe, 1u);
}

TEST(Pipes, FenceDropsStaleEpochPayloads) {
  Swarm s(2);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps1(s[1], s.scheduler());
  int got = 0;
  ps1.advertise_input("c", [&](const net::Endpoint&, serial::Bytes) { ++got; });
  ps1.fence("c", 2);
  EXPECT_EQ(ps1.fence_of("c"), 2u);

  OutputPipe p{"c", s[1].endpoint()};
  ps0.send(p, serial::to_bytes("stale"), /*epoch=*/1);
  s.net().run_all();
  EXPECT_EQ(got, 0);  // dropped at the fence, handler never ran
  EXPECT_EQ(ps1.stats().payloads_fenced, 1u);
  EXPECT_EQ(ps1.stats().payloads_received, 0u);

  ps0.send(p, serial::to_bytes("current"), /*epoch=*/2);
  s.net().run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ps1.stats().payloads_received, 1u);

  // Fences only ever rise: an older fence cannot reopen the pipe.
  ps1.fence("c", 1);
  EXPECT_EQ(ps1.fence_of("c"), 2u);
  ps0.send(p, serial::to_bytes("stale again"), /*epoch=*/1);
  s.net().run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ps1.stats().payloads_fenced, 2u);
}

TEST(Pipes, SenderScopedFenceSparesOtherProducers) {
  // Fan-in: two producers share the label "c" (a parallel group funnelling
  // into one home channel), each sending at its own epoch. Fencing the
  // replaced producer must not silence its healthy sibling.
  Swarm s(3);
  s.connect(0, 2);
  s.connect(1, 2);
  PipeServe psa(s[0], s.scheduler());
  PipeServe psb(s[1], s.scheduler());
  PipeServe sink(s[2], s.scheduler());
  int got = 0;
  sink.advertise_input("c",
                       [&](const net::Endpoint&, serial::Bytes) { ++got; });
  sink.fence("c", 2, s[0].endpoint().value);
  EXPECT_EQ(sink.fence_of("c", s[0].endpoint().value), 2u);
  EXPECT_EQ(sink.fence_of("c", s[1].endpoint().value), 0u);
  EXPECT_EQ(sink.fence_of("c"), 0u);  // no wildcard fence installed

  OutputPipe p{"c", s[2].endpoint()};
  psa.send(p, serial::to_bytes("zombie"), /*epoch=*/1);   // fenced sender
  psb.send(p, serial::to_bytes("sibling"), /*epoch=*/0);  // untouched
  s.net().run_all();
  EXPECT_EQ(got, 1);  // only the sibling's payload got through
  EXPECT_EQ(sink.stats().payloads_fenced, 1u);

  // The fenced sender clears the bar once it carries the new epoch.
  psa.send(p, serial::to_bytes("replacement"), /*epoch=*/2);
  s.net().run_all();
  EXPECT_EQ(got, 2);

  // A wildcard fence combines with the sender-scoped one as max.
  sink.fence("c", 5);
  EXPECT_EQ(sink.fence_of("c", s[0].endpoint().value), 5u);
  EXPECT_EQ(sink.fence_of("c", s[1].endpoint().value), 5u);
  psb.send(p, serial::to_bytes("now stale"), /*epoch=*/4);
  s.net().run_all();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(sink.stats().payloads_fenced, 2u);
}

TEST(Pipes, BindPrefersHighestEpochAdvert) {
  Swarm s(3);
  s.connect(0, 1);  // star: one ring reaches both advertisers
  s.connect(0, 2);
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps1(s[1], s.scheduler());
  PipeServe ps2(s[2], s.scheduler());

  // The zombie (epoch 0) and its fenced replacement (epoch 3) both still
  // advertise the label; a binder must resolve to the replacement.
  ps1.advertise_input("c", [](const net::Endpoint&, serial::Bytes) {});
  ps2.advertise_input("c", [](const net::Endpoint&, serial::Bytes) {},
                      /*epoch=*/3);

  OutputPipe pipe;
  ExpandingRingOptions ring;
  ring.min_results = 2;  // collect both candidates before resolving
  ps0.bind_output("c", [&](OutputPipe p) { pipe = std::move(p); }, ring);
  s.net().run_all();
  ASSERT_TRUE(pipe.bound());
  EXPECT_EQ(pipe.target, s[2].endpoint());
}

TEST(Pipes, UnknownPipeHandlerCanClaimPayloads) {
  Swarm s(2);
  s.make_line();
  PipeServe ps0(s[0], s.scheduler());
  PipeServe ps1(s[1], s.scheduler());
  std::string claimed_pipe;
  ps1.set_unknown_pipe_handler(
      [&](const std::string& pipe, const net::Endpoint&, serial::Bytes) {
        claimed_pipe = pipe;
        return pipe == "claim-me";  // true = consumed, not "unknown"
      });

  ps0.send(OutputPipe{"claim-me", s[1].endpoint()}, serial::to_bytes("a"));
  s.net().run_all();
  EXPECT_EQ(claimed_pipe, "claim-me");
  EXPECT_EQ(ps1.stats().payloads_for_unknown_pipe, 0u);

  ps0.send(OutputPipe{"not-mine", s[1].endpoint()}, serial::to_bytes("b"));
  s.net().run_all();
  EXPECT_EQ(claimed_pipe, "not-mine");
  EXPECT_EQ(ps1.stats().payloads_for_unknown_pipe, 1u);
}

TEST(PeerRoutes, EachFrameTypeReachesItsHandlerInAnyRegistrationOrder) {
  Swarm s(2);
  s.make_line();
  const auto route_code = [](PeerNode& node, repo::CodeExchange& code) {
    node.route(serial::FrameType::kCode,
               [&code](const net::Endpoint& from, serial::Frame f) {
                 code.on_frame(from, std::move(f));
               });
  };

  // Node 1 routes kCode before PipeServe registers kData; node 0 the
  // other way round.
  repo::CodeExchange code1(s[1].transport());
  route_code(s[1], code1);
  PipeServe ps1(s[1], s.scheduler());
  PipeServe ps0(s[0], s.scheduler());
  repo::CodeExchange code0(s[0].transport());
  route_code(s[0], code0);
  std::vector<serial::FrameType> control_seen;
  s[1].route(serial::FrameType::kControl,
             [&](const net::Endpoint&, serial::Frame f) {
               control_seen.push_back(f.type);
             });

  // One handler per type, and discovery belongs to the node itself.
  const net::FrameHandler noop = [](const net::Endpoint&, serial::Frame) {};
  EXPECT_THROW(s[1].route(serial::FrameType::kData, noop), std::logic_error);
  EXPECT_THROW(s[0].route(serial::FrameType::kCode, noop), std::logic_error);
  EXPECT_THROW(s[1].route(serial::FrameType::kControl, noop),
               std::logic_error);
  EXPECT_THROW(s[0].route(serial::FrameType::kDiscovery, noop),
               std::logic_error);

  repo::ModuleRepository repo1;
  repo1.put(repo::make_synthetic_artifact("FFT", "1.0", 512));
  code1.serve_from(&repo1);

  // kData reaches node 1's pipes.
  std::string got;
  ps1.advertise_input("routed-pipe",
                      [&](const net::Endpoint&, serial::Bytes payload) {
                        got = serial::to_string(payload);
                      });
  OutputPipe pipe;
  ps0.bind_output("routed-pipe", [&](OutputPipe p) { pipe = std::move(p); });
  s.net().run_all();
  ASSERT_TRUE(pipe.bound());
  ps0.send(pipe, serial::to_bytes("data"));

  // kCode round-trips: the request is routed on node 1, the response on
  // node 0.
  std::optional<repo::ModuleArtifact> fetched;
  code0.fetch(s[1].endpoint(), "FFT", "",
              [&](std::optional<repo::ModuleArtifact> a) {
                fetched = std::move(a);
              });

  // kControl reaches node 1's handler; node 0 routes no kControl and no
  // node routes kHeartbeat, so those frames are dropped.
  serial::Frame ctl;
  ctl.type = serial::FrameType::kControl;
  ctl.payload = {42};
  s[0].transport().send(s[1].endpoint(), ctl);
  s[1].transport().send(s[0].endpoint(), ctl);
  serial::Frame beat;
  beat.type = serial::FrameType::kHeartbeat;
  s[0].transport().send(s[1].endpoint(), beat);

  EXPECT_NO_THROW(s.net().run_all());
  EXPECT_EQ(got, "data");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->name, "FFT");
  EXPECT_EQ(control_seen,
            (std::vector<serial::FrameType>{serial::FrameType::kControl}));
}

TEST(Pipes, RendezvousPublishPath) {
  Swarm s(3);
  // 0 = rendezvous, no overlay edges anywhere.
  s[0].set_rendezvous_role(true);
  s[1].add_rendezvous(s[0].endpoint());
  s[2].add_rendezvous(s[0].endpoint());
  PipeServe ps1(s[1], s.scheduler());
  PipeServe ps2(s[2], s.scheduler());

  std::string got;
  ps1.advertise_input("data-in",
                      [&](const net::Endpoint&, serial::Bytes b) {
                        got = serial::to_string(b);
                      });
  s.net().run_all();  // deliver the publish to the rendezvous

  OutputPipe pipe;
  ps2.bind_output("data-in", [&](OutputPipe p) { pipe = std::move(p); });
  s.net().run_all();
  ASSERT_TRUE(pipe.bound());
  ps2.send(pipe, serial::to_bytes("via rdv"));
  s.net().run_all();
  EXPECT_EQ(got, "via rdv");
}

// The rendezvous is configured but silent about the pipe: after
// ring_timeout_s the bind falls back to the expanding ring, which finds a
// provider one neighbour hop away -- or, with no provider anywhere, reports
// an unbound pipe exactly once.
TEST(Pipes, SilentRendezvousFallsBackToRing) {
  ExpandingRingOptions ring;
  ring.max_ttl = 2;
  ring.ring_timeout_s = 0.5;
  for (const bool provider : {true, false}) {
    Swarm s(3);
    // 0 = rendezvous holding no pipe advert, 1 = binder, 2 = neighbour.
    s[0].set_rendezvous_role(true);
    s[1].add_rendezvous(s[0].endpoint());
    s.connect(1, 2);
    PipeServe ps1(s[1], s.scheduler());
    PipeServe ps2(s[2], s.scheduler());
    if (provider) {
      ps2.advertise_input("late-in",
                          [](const net::Endpoint&, serial::Bytes) {});
    }
    s.net().run_all();

    int calls = 0;
    OutputPipe pipe;
    double bound_at = 0;
    const double t0 = s.net().now();
    ps1.bind_output("late-in", [&](OutputPipe p) {
      ++calls;
      pipe = std::move(p);
      bound_at = s.net().now();
    }, ring);
    s.net().run_all();
    ASSERT_EQ(calls, 1) << "provider=" << provider;
    EXPECT_EQ(pipe.name, "late-in");
    EXPECT_GE(bound_at - t0, ring.ring_timeout_s);
    if (provider) {
      ASSERT_TRUE(pipe.bound());
      EXPECT_EQ(pipe.target, s[2].endpoint());
    } else {
      EXPECT_FALSE(pipe.bound());
    }
  }
}

}  // namespace
}  // namespace cg::p2p
