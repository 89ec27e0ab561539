// E14 -- structured overlay vs flooding at consumer-grid populations.
//
// E4 measures how flooding's per-query cost tracks the edge count; this
// experiment races the structured overlay (Kademlia-style routing +
// sharded attribute rendezvous, src/p2p/overlay.hpp) against that
// baseline at 10^4..10^6 simulated peers. The paper's section 4 motivates
// exactly this: flooding "severely restricts the scalability" of
// discovery once a very large number of consumer nodes participate.
//
// Setup: N peers on one simulated network. 64 provider peers advertise
// cpu_mhz capabilities spread over [0, 4000); 20 random queriers ask for
// cpu_mhz >= 3000 (a 4-shard band of the 16-shard federation). Flooding
// answers from peer caches over a random ~4-regular graph at TTL 64; the
// overlay answers from shard replicas reached by iterative XOR lookups.
// Each querier starts with a cold replica cache, so overlay rows pay the
// full lookup cost, not just the steady-state two messages per shard.
//
// Routing tables are seeded lazily: node ids are kept in one sorted
// array, and bucket b of node x covers the contiguous id range
// [(x ^ 2^b) & ~(2^b - 1), +2^b), so sampling a bucket is a binary
// search. Only nodes a lookup actually touches ever build a table, which
// is what makes the 10^6 row affordable. Flooding is skipped at 10^6 --
// wiring and walking ~4e6 edges per query adds minutes of wall clock for
// a number E4's linear fit already predicts -- and the skip is printed.
//
// Machine-readable output: --json PATH writes every table row (the
// discovery-scale CI job gates msgs_per_query and latency_p95_ms against
// bench/baselines/overlay.json); --trace PATH reruns a pocket-sized
// overlay publish+find with the causal tracer bound and writes JSONL for
// congrid-trace --validate; --max-peers N truncates the sweep.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "discovery_rig.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/node_id.hpp"
#include "p2p/overlay.hpp"

using namespace cg;
using bench::kQueries;
using bench::Outcome;

namespace {

constexpr std::size_t kProviders = 64;
constexpr double kCpuMin = 3000.0;  // matches the top 16 providers

p2p::Query wanted_query() {
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = kCpuMin;
  return q;
}

/// Per-bucket bootstrap from the globally sorted id list (see header
/// comment): at most `per_bucket` contacts per bucket, found by binary
/// search instead of an eager join protocol.
std::vector<p2p::Contact> sample_buckets(
    p2p::NodeId self,
    const std::vector<std::pair<std::uint64_t, net::Endpoint>>& sorted,
    std::size_t per_bucket) {
  std::vector<p2p::Contact> out;
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
      out.push_back(p2p::Contact{p2p::NodeId{it->first}, it->second});
    }
  }
  return out;
}

/// N peers sharing one SimNetwork, with an OverlayNode per peer and
/// (optionally) E4's flooding graph. The sorted id list is shared through a
/// shared_ptr so the per-node OverlayConfig copies stay O(1).
struct Swarm : bench::PeerRing {
  Swarm(std::size_t n, std::uint64_t seed, bool wire_flood_graph)
      : PeerRing(n, seed) {
    overlays.reserve(n);
    auto sorted = std::make_shared<
        std::vector<std::pair<std::uint64_t, net::Endpoint>>>();
    sorted->reserve(n);
    for (const auto& node : nodes) {
      sorted->emplace_back(p2p::node_id_of(node->id()).bits,
                           node->endpoint());
    }
    std::sort(sorted->begin(), sorted->end());
    p2p::OverlayConfig cfg;
    cfg.bootstrap = [sorted](p2p::NodeId self) {
      return sample_buckets(self, *sorted, 2);
    };
    auto sched = net.scheduler();
    for (std::size_t i = 0; i < n; ++i) {
      overlays.push_back(
          std::make_unique<p2p::OverlayNode>(*nodes[i], sched, cfg));
      overlays.back()->enable_index();
    }
    if (wire_flood_graph) wire_chords();
  }

  /// Providers publish into peer caches (flooding's plane) and onto the
  /// shard federation (the overlay's). Returns overlay publish messages.
  std::uint64_t plant_adverts() {
    const std::uint64_t msgs0 = net.stats().messages_sent;
    const std::size_t n = nodes.size();
    for (std::size_t p = 0; p < kProviders; ++p) {
      const std::size_t who = (p * (n / kProviders)) % n;
      const double cpu = 4000.0 * static_cast<double>(p) / kProviders;
      auto a = nodes[who]->make_peer_advert(
          {{"cpu_mhz", std::to_string(cpu)}});
      a.expires_at = 1e18;  // capability adverts outlive the whole run
      nodes[who]->publish_local(a);
      overlays[who]->publish({a});
    }
    net.run_all();
    return net.stats().messages_sent - msgs0;
  }

  std::vector<std::unique_ptr<p2p::OverlayNode>> overlays;
};

Outcome run_flooding(Swarm& s) {
  return bench::measure_queries(
      s, [&] { return s.rng.below(s.nodes.size()); },
      [&](std::size_t origin, const std::function<void()>& hit) {
        s.nodes[origin]->discover_flood(
            wanted_query(), 64,
            [hit](const std::vector<p2p::Advertisement>&) { hit(); });
      });
}

Outcome run_overlay(Swarm& s) {
  return bench::measure_queries(
      s, [&] { return s.rng.below(s.nodes.size()); },
      [&](std::size_t origin, const std::function<void()>& hit) {
        s.overlays[origin]->find(wanted_query(), SIZE_MAX,
                                 [hit](std::vector<p2p::Advertisement> as) {
                                   if (!as.empty()) hit();
                                 });
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_discovery_overlay");
  std::size_t max_peers = 1000000;
  b.flags.add("--max-peers", max_peers, 1);
  b.json_flag();
  b.trace_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E14: structured overlay vs flooding (paper section 4)\n");
  std::printf(
      "64 providers, query cpu_mhz >= %.0f, %d cold-cache queries per "
      "point; overlay row counts query traffic only (publish cost printed "
      "per scale)\n\n",
      kCpuMin, kQueries);
  std::printf("%-10s %-9s %-14s %-9s %-12s %-12s\n", "strategy", "peers",
              "msgs/query", "success", "latency ms", "p95 ms");

  std::vector<bench::NamedRow> rows;
  auto record = [&](const char* strategy, std::size_t n, Outcome o) {
    std::printf("%-10s %-9zu %-14.1f %-9.2f %-12.1f %-12.1f\n", strategy, n,
                o.msgs_per_query, o.success_rate, o.latency_ms,
                o.latency_p95_ms);
    rows.push_back({strategy, n, o});
  };
  for (std::size_t n : {10000u, 100000u, 1000000u}) {
    if (n > max_peers) continue;
    const bool flood = n < 1000000;  // 10^6: ~4e6 edges/query, skipped
    Swarm s(n, 7, flood);
    const std::uint64_t publish_msgs = s.plant_adverts();
    if (flood) {
      record("flooding", n, run_flooding(s));
    } else {
      std::printf(
          "%-10s %-9zu skipped: full flood walks ~%.0e edges per query "
          "(E4's linear fit); overlay below still answers\n",
          "flooding", n, 4.0 * static_cast<double>(n));
    }
    record("overlay", n, run_overlay(s));
    std::printf("%-10s %-9zu one-time publish: %llu msgs for %zu adverts\n\n",
                "", n, static_cast<unsigned long long>(publish_msgs),
                kProviders);
  }
  std::printf(
      "Shape check: flooding pays O(edges) per query, linear in N; the "
      "overlay resolves each of the 4 matching shards with an O(log N) "
      "iterative lookup plus one index round-trip, so its per-query cost "
      "grows sub-linearly from 10^4 to 10^6.\n");

  if (!b.write_json("{\"bench\":\"discovery_overlay\",\"queries\":" +
                    std::to_string(kQueries) +
                    ",\"rows\":" + bench::rows_json(rows, true) + "}")) {
    return 1;
  }

  // --trace: rerun a pocket-sized publish+find with the causal tracer
  // bound to the querier; every lookup/find span ends once the network
  // drains, so congrid-trace --validate accepts the export.
  if (b.tracing()) {
    obs::Registry registry;
    obs::Tracer tracer(1 << 14);
    Swarm tiny(256, 7, false);
    tiny.nodes[0]->set_obs(&tracer, "querier");
    tiny.overlays[0]->set_obs(registry, &tracer, "querier");
    tiny.plant_adverts();
    tiny.overlays[0]->find(wanted_query(), SIZE_MAX,
                           [](std::vector<p2p::Advertisement>) {});
    tiny.net.run_all();
    if (!b.write_trace(tracer)) return 1;
  }
  return 0;
}
