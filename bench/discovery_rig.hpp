// ConGrid -- the discovery rig shared by E4 (bench_discovery) and E14
// (bench_discovery_overlay): N peers on one simulated network wired as a
// ring plus random chords, and the loop that measures kQueries queries
// against them (messages per query, success rate, time to first answer).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/json.hpp"
#include "p2p/peer_node.hpp"

namespace cg::bench {

constexpr int kQueries = 20;

/// Peers "p0".."p<n-1>" on one SimNetwork. `rng` (seeded like the network)
/// draws the chords and, afterwards, the targets and queriers.
struct PeerRing {
  PeerRing(std::size_t n, std::uint64_t seed) : net({}, seed), rng(seed) {
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& t = net.add_node();
      nodes.push_back(std::make_unique<p2p::PeerNode>(
          t, net.clock(), std::string("p").append(std::to_string(i))));
    }
  }

  /// Ring + random chords: connected, mean degree ~4.
  void wire_chords() {
    const std::size_t n = nodes.size();
    for (std::size_t i = 0; i < n; ++i) {
      link(i, (i + 1) % n);
      link(i, rng.below(n));
    }
  }

  void link(std::size_t a, std::size_t b) {
    if (a == b) return;
    nodes[a]->add_neighbor(nodes[b]->endpoint());
    nodes[b]->add_neighbor(nodes[a]->endpoint());
  }

  net::SimNetwork net;
  dsp::Rng rng;
  std::vector<std::unique_ptr<p2p::PeerNode>> nodes;
};

struct Outcome {
  double msgs_per_query = 0;
  double success_rate = 0;
  double latency_ms = 0;      ///< mean time to first answer, successes only
  double latency_p95_ms = 0;  ///< 95th percentile of the same
};

inline double p95(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = (v.size() * 95 + 99) / 100;  // ceil(0.95 n)
  return v[std::min(idx == 0 ? 0 : idx - 1, v.size() - 1)];
}

/// Issues the query from `origin`; the query's handler calls `hit()` on
/// every answer (only the first one counts).
using IssueQuery =
    std::function<void(std::size_t origin, const std::function<void()>& hit)>;

/// Runs kQueries queries, each from `pick_origin()`, draining the network
/// after each. `extra_msgs` (a one-time publish cost) is spread over the
/// queries.
inline Outcome measure_queries(PeerRing& ring,
                               const std::function<std::size_t()>& pick_origin,
                               const IssueQuery& issue,
                               double extra_msgs = 0) {
  int successes = 0;
  std::vector<double> lat;
  double total_msgs = 0;
  for (int qn = 0; qn < kQueries; ++qn) {
    const std::size_t origin = pick_origin();
    const std::uint64_t msgs0 = ring.net.stats().messages_sent;
    const double t0 = ring.net.now();
    bool hit = false;
    double hit_at = 0;
    issue(origin, [&] {
      if (!hit) {
        hit = true;
        hit_at = ring.net.now();
      }
    });
    ring.net.run_all();
    total_msgs +=
        static_cast<double>(ring.net.stats().messages_sent - msgs0);
    if (hit) {
      ++successes;
      lat.push_back((hit_at - t0) * 1000.0);
    }
  }
  dsp::RunningStats mean;
  for (double l : lat) mean.add(l);
  return Outcome{(total_msgs + extra_msgs) / kQueries,
                 static_cast<double>(successes) / kQueries,
                 lat.empty() ? 0.0 : mean.mean(), p95(lat)};
}

struct NamedRow {
  std::string strategy;
  std::size_t peers = 0;
  Outcome o;
};

/// The rows as JSON; E14's rows carry the p95 latency, E4's do not.
inline std::string rows_json(const std::vector<NamedRow>& rows,
                             bool with_p95) {
  return json_rows(rows, [with_p95](std::string& out, const NamedRow& r) {
    out += "\"strategy\":" + obs::json_quote(r.strategy);
    out += ",\"peers\":" + std::to_string(r.peers);
    out += ",\"msgs_per_query\":" + obs::json_number(r.o.msgs_per_query);
    out += ",\"success_rate\":" + obs::json_number(r.o.success_rate);
    out += ",\"latency_ms\":" + obs::json_number(r.o.latency_ms);
    if (with_p95) {
      out += ",\"latency_p95_ms\":" + obs::json_number(r.o.latency_p95_ms);
    }
  });
}

}  // namespace cg::bench
