// Property-based tests: randomized sweeps (parameterised by seed) checking
// invariants that must hold for *any* input -- codec round-trips, graph
// XML identity, checkpoint equivalence, cache accounting, trace algebra,
// and flooding's duplicate-suppression bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "churn/availability.hpp"
#include "core/engine/runtime.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"
#include "p2p/peer_node.hpp"
#include "repo/module_cache.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace cg {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  dsp::Rng rng{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

// ------------------------------------------------------------ serial fuzz

TEST_P(Seeded, SerialRandomSequenceRoundTrips) {
  // Write a random typed sequence, read it back with the same schedule.
  enum Kind { kU8, kU32, kU64, kVar, kSvar, kF64, kStr, kBlob };
  std::vector<int> schedule;
  std::vector<std::uint64_t> uvals;
  std::vector<std::int64_t> svals;
  std::vector<double> dvals;
  std::vector<std::string> strs;
  std::vector<serial::Bytes> blobs;

  serial::Writer w;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng.below(8));
    schedule.push_back(kind);
    switch (kind) {
      case kU8: {
        const auto v = rng.below(256);
        uvals.push_back(v);
        w.u8(static_cast<std::uint8_t>(v));
        break;
      }
      case kU32: {
        const auto v = rng.below(1ull << 32);
        uvals.push_back(v);
        w.u32(static_cast<std::uint32_t>(v));
        break;
      }
      case kU64: {
        const auto v = rng();
        uvals.push_back(v);
        w.u64(v);
        break;
      }
      case kVar: {
        const auto v = rng() >> rng.below(64);
        uvals.push_back(v);
        w.varint(v);
        break;
      }
      case kSvar: {
        const auto v = static_cast<std::int64_t>(rng());
        svals.push_back(v);
        w.svarint(v);
        break;
      }
      case kF64: {
        const double v = rng.gaussian() * std::pow(10.0, rng.uniform(-30, 30));
        dvals.push_back(v);
        w.f64(v);
        break;
      }
      case kStr: {
        std::string s;
        const auto len = rng.below(40);
        for (std::uint64_t k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.below(256)));
        }
        strs.push_back(s);
        w.string(s);
        break;
      }
      case kBlob: {
        serial::Bytes b;
        const auto len = rng.below(100);
        for (std::uint64_t k = 0; k < len; ++k) {
          b.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        blobs.push_back(b);
        w.blob(b);
        break;
      }
    }
  }

  serial::Reader r(w.bytes());
  std::size_t iu = 0, is = 0, id = 0, istr = 0, ib = 0;
  for (int kind : schedule) {
    switch (kind) {
      case kU8: EXPECT_EQ(r.u8(), uvals[iu++]); break;
      case kU32: EXPECT_EQ(r.u32(), uvals[iu++]); break;
      case kU64: EXPECT_EQ(r.u64(), uvals[iu++]); break;
      case kVar: EXPECT_EQ(r.varint(), uvals[iu++]); break;
      case kSvar: EXPECT_EQ(r.svarint(), svals[is++]); break;
      case kF64: EXPECT_DOUBLE_EQ(r.f64(), dvals[id++]); break;
      case kStr: EXPECT_EQ(r.string(), strs[istr++]); break;
      case kBlob: EXPECT_EQ(r.blob(), blobs[ib++]); break;
    }
  }
  EXPECT_TRUE(r.at_end());
}

// ----------------------------------------------------------- XML escaping

TEST_P(Seeded, XmlAttributeAndTextSurviveArbitraryPrintableContent) {
  auto random_text = [&](std::size_t len) {
    // Printable ASCII including the five XML-special characters.
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(32 + rng.below(95)));
    }
    return s;
  };
  for (int rep = 0; rep < 20; ++rep) {
    xml::Node n("v");
    n.set_attr("a", random_text(rng.below(30)));
    std::string text = random_text(1 + rng.below(30));
    // Leading/trailing whitespace is trimmed by the parser by design.
    if (std::isspace(static_cast<unsigned char>(text.front()))) {
      text.front() = 'x';
    }
    if (std::isspace(static_cast<unsigned char>(text.back()))) {
      text.back() = 'x';
    }
    n.set_text(text);
    const xml::Node back = xml::parse(xml::write(n));
    EXPECT_EQ(back, n);
  }
}

// ----------------------------------------------------- random task graphs

core::UnitRegistry& reg() {
  static core::UnitRegistry r = core::UnitRegistry::with_builtins();
  return r;
}

/// A random valid DAG: one Wave source, a chain/diamond of sample-set
/// transforms, one Grapher sink.
core::TaskGraph random_graph(dsp::Rng& rng) {
  static const char* kTransforms[] = {"Scaler", "Offset", "Rectifier",
                                      "MovingAverage", "Clipper"};
  core::TaskGraph g("random");
  core::ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Src", "Wave", wp);
  const int n = 2 + static_cast<int>(rng.below(8));
  std::vector<std::string> names{"Src"};
  for (int i = 0; i < n; ++i) {
    const std::string name = std::string("t").append(std::to_string(i));
    core::ParamSet p;
    if (rng.chance(0.5)) p.set_double("factor", rng.uniform(0.5, 2.0));
    g.add_task(name, kTransforms[rng.below(5)], p);
    // Connect from a random earlier task (keeps it a DAG, single input).
    g.connect(names[rng.below(names.size())], 0, name, 0);
    names.push_back(name);
  }
  g.add_task("Sink", "Grapher");
  g.connect(names.back(), 0, "Sink", 0);
  return g;
}

TEST_P(Seeded, RandomGraphXmlRoundTripIsIdentity) {
  for (int rep = 0; rep < 10; ++rep) {
    const core::TaskGraph g = random_graph(rng);
    const std::string doc = core::write_taskgraph(g);
    const core::TaskGraph back = core::parse_taskgraph(doc);
    EXPECT_EQ(core::write_taskgraph(back), doc);
    EXPECT_EQ(back.tasks().size(), g.tasks().size());
    EXPECT_EQ(back.connections(), g.connections());
  }
}

TEST_P(Seeded, RandomGraphValidatesAndRuns) {
  const core::TaskGraph g = random_graph(rng);
  core::GraphRuntime rt(g, reg(), core::RuntimeOptions{.rng_seed = GetParam()});
  rt.run(3);
  EXPECT_EQ(rt.unit_as<core::GrapherUnit>("Sink")->items().size(), 3u);
}

TEST_P(Seeded, CheckpointRestoreEquivalenceOnRandomGraphs) {
  // Run A for k iterations, checkpoint, restore into B; A and B must then
  // produce identical items forever (all units here are deterministic;
  // per-task RNG streams are part of neither unit's behaviour).
  const core::TaskGraph g = random_graph(rng);
  const auto k = 1 + rng.below(5);
  core::GraphRuntime a(g, reg(), core::RuntimeOptions{.rng_seed = 9});
  a.run(k);
  core::GraphRuntime b(g, reg(), core::RuntimeOptions{.rng_seed = 9});
  b.restore_checkpoint(a.save_checkpoint());
  a.run(3);
  b.run(3);
  const auto& ia = a.unit_as<core::GrapherUnit>("Sink")->items();
  const auto& ib = b.unit_as<core::GrapherUnit>("Sink")->items();
  ASSERT_EQ(ib.size(), 3u);
  // Compare the post-restore tail of A with B's items.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ia[ia.size() - 3 + i], ib[i]);
  }
}

// ----------------------------------------------------- data item round trip

TEST_P(Seeded, RandomDataItemsRoundTrip) {
  for (int rep = 0; rep < 30; ++rep) {
    core::DataItem item;
    switch (rng.below(6)) {
      case 0: item = core::DataItem(rng.gaussian()); break;
      case 1: item = core::DataItem(static_cast<std::int64_t>(rng())); break;
      case 2: {
        std::string s;
        for (std::uint64_t i = 0; i < rng.below(50); ++i) {
          s.push_back(static_cast<char>(rng.below(256)));
        }
        item = core::DataItem(std::move(s));
        break;
      }
      case 3: {
        core::SampleSet ss;
        ss.sample_rate = rng.uniform(1, 1e5);
        for (std::uint64_t i = 0; i < rng.below(64); ++i) {
          ss.samples.push_back(rng.gaussian());
        }
        item = core::DataItem(std::move(ss));
        break;
      }
      case 4: {
        core::ImageFrame f;
        f.width = 1 + static_cast<std::uint32_t>(rng.below(8));
        f.height = 1 + static_cast<std::uint32_t>(rng.below(8));
        f.pixels.resize(static_cast<std::size_t>(f.width) * f.height);
        for (auto& p : f.pixels) p = rng.uniform();
        item = core::DataItem(std::move(f));
        break;
      }
      case 5: {
        core::Table t;
        const auto cols = 1 + rng.below(4);
        for (std::uint64_t c = 0; c < cols; ++c) {
          t.columns.push_back(std::string("c").append(std::to_string(c)));
        }
        for (std::uint64_t r = 0; r < rng.below(6); ++r) {
          std::vector<std::string> row;
          for (std::uint64_t c = 0; c < cols; ++c) {
            row.push_back(std::to_string(rng.below(1000)));
          }
          t.rows.push_back(std::move(row));
        }
        item = core::DataItem(std::move(t));
        break;
      }
    }
    EXPECT_EQ(core::decode_data_item(core::encode_data_item(item)), item);
  }
}

// -------------------------------------------------------- cache invariants

TEST_P(Seeded, ModuleCacheAccountingInvariants) {
  const std::size_t budget = 2000;
  repo::ModuleCache cache(budget);
  std::vector<std::string> pinned;

  for (int op = 0; op < 400; ++op) {
    const auto action = rng.below(10);
    const std::string name =
        std::string("m").append(std::to_string(rng.below(12)));
    if (action < 5) {
      cache.insert(repo::make_synthetic_artifact(name, "1", 50 + rng.below(400)));
    } else if (action < 7) {
      cache.lookup(name);
    } else if (action == 7) {
      if (cache.contains(name)) {
        cache.pin(name);
        pinned.push_back(name);
      }
    } else if (action == 8) {
      if (!pinned.empty()) {
        const auto i = rng.below(pinned.size());
        cache.unpin(pinned[i]);
        pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else {
      cache.release(name);
    }

    // Invariants after every operation:
    ASSERT_LE(cache.resident_bytes(), budget);
    for (const auto& p : pinned) {
      ASSERT_TRUE(cache.contains(p)) << "pinned entry evicted: " << p;
      ASSERT_TRUE(cache.is_pinned(p));
    }
    std::set<std::string> distinct(pinned.begin(), pinned.end());
    ASSERT_GE(cache.entry_count(), distinct.size());
  }
}

// ---------------------------------------------------------- trace algebra

churn::Trace random_trace(dsp::Rng& rng, double horizon) {
  churn::Trace t;
  for (int i = 0; i < 20; ++i) {
    const double a = rng.uniform(0, horizon);
    const double b = a + rng.exponential(horizon / 20);
    t.push_back({a, std::min(b, horizon)});
  }
  return churn::normalise(std::move(t));
}

TEST_P(Seeded, TraceNormaliseIsIdempotentAndDisjoint) {
  const auto t = random_trace(rng, 1000.0);
  EXPECT_EQ(churn::normalise(t), t);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LT(t[i - 1].end, t[i].start);
  }
}

TEST_P(Seeded, TraceIntersectionIsContainedInBoth) {
  const auto a = random_trace(rng, 1000.0);
  const auto b = random_trace(rng, 1000.0);
  const auto c = churn::intersect(a, b);
  const double fa = churn::availability_fraction(a, 1000.0);
  const double fb = churn::availability_fraction(b, 1000.0);
  const double fc = churn::availability_fraction(c, 1000.0);
  EXPECT_LE(fc, std::min(fa, fb) + 1e-12);
  // Symmetry.
  const auto c2 = churn::intersect(b, a);
  EXPECT_EQ(c, c2);
  // Self-intersection is identity.
  EXPECT_EQ(churn::intersect(a, a), a);
}

TEST_P(Seeded, CheckpointingNeverLosesTasks) {
  const auto t = random_trace(rng, 5000.0);
  const double task = 100.0 + rng.uniform(0, 400.0);
  const auto none = churn::completed_tasks(t, 5000.0, task, 0.0);
  const auto with = churn::completed_tasks(t, 5000.0, task, task / 10.0);
  EXPECT_GE(with, none);
}

// --------------------------------------------------- flooding message bound

TEST_P(Seeded, FloodingMessagesBoundedByTwiceEdges) {
  // Whatever the topology and TTL, duplicate suppression caps query
  // traffic at 2 messages per overlay edge, plus at most one response per
  // node.
  net::SimNetwork net({}, GetParam());
  const std::size_t n = 24;
  std::vector<std::unique_ptr<p2p::PeerNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<p2p::PeerNode>(
        net.add_node(), net.clock(), std::string("n").append(std::to_string(i))));
  }
  std::size_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t j = rng.below(n);
      if (j == i) continue;
      nodes[i]->add_neighbor(nodes[j]->endpoint());
      nodes[j]->add_neighbor(nodes[i]->endpoint());
    }
  }
  for (const auto& node : nodes) edges += node->neighbors().size();
  edges /= 2;

  // Everyone holds a matching advert (worst case for responses).
  for (auto& node : nodes) {
    node->publish_local(node->make_peer_advert({}));
  }
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  nodes[0]->discover_flood(q, 255, [](const auto&) {});
  net.run_all();
  EXPECT_LE(net.stats().messages_sent, 2 * edges + n);
}

// --------------------------------------------------- RunningStats property

TEST_P(Seeded, RunningStatsMergeEqualsSequentialForRandomSplits) {
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.gaussian(rng.uniform(-5, 5), rng.uniform(0.1, 3));
  dsp::RunningStats all;
  for (double x : xs) all.add(x);

  // Split into 3 random parts, merge.
  dsp::RunningStats parts[3];
  for (double x : xs) parts[rng.below(3)].add(x);
  dsp::RunningStats merged;
  for (auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-6);
}

}  // namespace
}  // namespace cg
