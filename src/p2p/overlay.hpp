// ConGrid -- structured discovery overlay.
//
// Flooding (peer_node.hpp) finds anything but costs O(edges) messages per
// query; the expanding ring only softens the constant. This overlay gives
// discovery a structure instead, combining two classic ingredients the
// paper's section 4 gestures at ("a more structured search mechanism"):
//
//   * Kademlia-style routing (routing_table.hpp): every peer sits on a
//     64-bit XOR ring (node_id.hpp) and keeps k contacts per distance
//     bucket. An iterative lookup asks the 3 closest known contacts at a
//     time for *their* closest contacts and repeats, halving the distance
//     per round -- O(log N) RPCs to reach any id at any population.
//
//   * Sharded attribute rendezvous: the primary capability attribute,
//     cpu_mhz, is banded into S shards; shard s lives at ring
//     position shard_key(s), replicated on the `replication` XOR-closest
//     index-serving peers. Publishing an advert means storing it on one
//     shard's replicas; a range query "cpu_mhz >= X" touches only the
//     shards whose bands intersect [X, inf) -- each answered from a
//     sorted AttributeIndex, not by waking the whole network.
//
// An OverlayNode attaches to an existing PeerNode via its discovery
// extension (kDiscovery subtypes >= 4), so the flooding protocols keep
// working untouched and experiment E14 can race the two on identical
// advert sets. Liveness plugs into the same phi-accrual machinery as the
// supervisor: responses are heartbeats, timeouts are failures, and a
// churned-out contact's timeouts feed RoutingTable eviction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/attribute_index.hpp"
#include "p2p/messages.hpp"
#include "p2p/node_id.hpp"
#include "p2p/peer_node.hpp"
#include "p2p/routing_table.hpp"

namespace cg::p2p {

/// Fixed (overlay.cpp): 3 parallel RPCs per lookup round, a 1 s RPC
/// timeout, cpu_mhz as the primary attribute, and at most 64 adverts per
/// index reply.
struct OverlayConfig {
  RoutingOptions routing;     ///< k doubles as lookup width
  std::uint32_t shards = 16;  ///< bands of the primary attribute
  std::size_t replication = 3;
  double primary_lo = 0.0;     ///< band edges: values map linearly
  double primary_hi = 4000.0;  ///< into [0, shards)
  /// Lazy routing-table seeding: invoked once, on first overlay use, with
  /// this node's id; the returned contacts become the initial table. Big
  /// simulations hand out analytic neighbourhoods this way instead of
  /// paying an eager bootstrap per node.
  std::function<std::vector<Contact>(NodeId)> bootstrap;
};

struct OverlayStats {
  std::uint64_t lookups = 0;
  std::uint64_t lookup_rpcs = 0;     ///< FIND_NODE sent
  std::uint64_t finds = 0;
  std::uint64_t find_rpcs = 0;       ///< INDEX_QUERY sent
  std::uint64_t publishes = 0;       ///< adverts published
  std::uint64_t publish_rpcs = 0;    ///< INDEX_PUT sent
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t shard_failures = 0;  ///< shards that ran out of replicas
  std::uint64_t find_nodes_served = 0;
  std::uint64_t index_queries_served = 0;
  std::uint64_t index_puts_received = 0;
};

class OverlayNode {
 public:
  /// Attaches to `node`'s discovery extension. The node and scheduler
  /// must outlive this object.
  OverlayNode(PeerNode& node, Scheduler scheduler, OverlayConfig config = {});

  OverlayNode(const OverlayNode&) = delete;
  OverlayNode& operator=(const OverlayNode&) = delete;

  NodeId id() const { return id_; }
  RoutingTable& routing() { return routing_; }
  const OverlayConfig& config() const { return config_; }

  /// Opt in to serving shard indexes (the rendezvous role of the
  /// structured world). Peers that never call this route but hold no
  /// adverts.
  void enable_index() { index_enabled_ = true; }
  bool index_enabled() const { return index_enabled_; }
  AttributeIndex& index() { return index_; }

  /// Run the bootstrap callback if it hasn't run yet (all public entry
  /// points do this automatically).
  void ensure_seeded();

  /// Direct evidence that `c` is alive (join handshake, churn rejoin).
  void observe(const Contact& c) { routing_.observe(c, node_.now()); }

  // -- iterative lookup --------------------------------------------------
  using LookupHandler = std::function<void(std::vector<Contact>)>;

  /// Iteratively find the k contacts closest to `target`. The handler
  /// fires exactly once, with the closest responders (possibly empty).
  void lookup(NodeId target, LookupHandler on);

  // -- sharded rendezvous ------------------------------------------------
  /// Store adverts on their shards' replica groups. The handler (optional)
  /// fires once all shards resolved, with the number of INDEX_PUTs sent.
  using PublishHandler = std::function<void(std::size_t puts)>;
  void publish(const std::vector<Advertisement>& adverts,
               PublishHandler on = {});

  /// Range-query the federation: every shard whose band can satisfy `q`'s
  /// constraint on the primary attribute is asked (via its cached or
  /// looked-up replica, with failover). The handler fires exactly once
  /// with the deduplicated matches, capped at `limit`.
  using FindHandler = std::function<void(std::vector<Advertisement>)>;
  void find(const Query& q, std::size_t limit, FindHandler on);

  /// Shard owning a given primary-attribute value.
  std::uint32_t shard_of(double primary_value) const;
  /// Shards [first, shards) a query's primary-attribute minimum reaches
  /// (all of them when the query doesn't constrain the primary).
  std::uint32_t first_shard(const Query& q) const;

  // -- churn maintenance -------------------------------------------------
  /// Periodic upkeep: evict contacts whose silence scores over phi_evict
  /// and re-lookup one random id per stale bucket. Returns evicted count.
  std::size_t maintain(double now, std::uint64_t seed = 1);

  // -- observability -----------------------------------------------------
  /// Bind counters under "<scope>.overlay.*" and a tracer for
  /// lookup / find spans (stamped with the node's causal context).
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view scope = {});

  const OverlayStats& stats() const { return stats_; }

 private:
  struct Lookup {
    NodeId target;
    std::vector<Contact> shortlist;  ///< distance-sorted, deduped
    std::unordered_set<std::uint64_t> queried;
    std::unordered_set<std::uint64_t> responded;
    std::unordered_set<std::uint64_t> failed;
    std::size_t pending = 0;
    LookupHandler on;
    std::uint64_t span = 0;
  };
  struct FindNodeRpc {
    std::uint64_t lookup_id = 0;
    Contact contact;
  };
  struct FindOp {
    Query query;
    std::size_t limit = SIZE_MAX;
    std::uint32_t shards_outstanding = 0;
    std::vector<Advertisement> found;
    std::unordered_set<std::string> seen_ids;
    FindHandler on;
    std::uint64_t span = 0;
  };
  struct IndexRpc {
    std::uint64_t find_id = 0;
    std::uint32_t shard = 0;
    std::size_t attempt = 0;
    std::vector<Contact> replicas;  ///< failover order
  };

  void on_frame(const net::Endpoint& from, const serial::Frame& frame);
  void handle_find_node(const net::Endpoint& from, FindNodeMsg m);
  void handle_find_node_reply(const net::Endpoint& from, FindNodeReplyMsg m);
  void handle_index_put(IndexPutMsg m);
  void handle_index_query(IndexQueryMsg m);
  void handle_index_reply(IndexReplyMsg m);

  void lookup_step(std::uint64_t lookup_id);
  void lookup_finish(std::uint64_t lookup_id);
  void send_find_node(std::uint64_t lookup_id, Lookup& l, const Contact& c);
  void add_to_shortlist(Lookup& l, const Contact& c);

  /// Resolve a shard's replica group (cache, else lookup) and hand it to
  /// `use`. May call `use` synchronously on a cache hit.
  void replicas_for(std::uint32_t shard,
                    std::function<void(std::vector<Contact>)> use);
  void send_index_query(std::uint64_t find_id, std::uint32_t shard,
                        std::size_t attempt, std::vector<Contact> replicas);
  void shard_done(std::uint64_t find_id);

  obs::TraceContext rpc_context(std::uint64_t span) const;

  PeerNode& node_;
  Scheduler scheduler_;
  OverlayConfig config_;
  NodeId id_;
  RoutingTable routing_;
  AttributeIndex index_;
  bool index_enabled_ = false;
  bool seeded_ = false;

  std::uint64_t next_id_ = 1;  ///< lookup / find / rpc id source
  std::unordered_map<std::uint64_t, Lookup> lookups_;
  std::unordered_map<std::uint64_t, FindNodeRpc> find_node_rpcs_;
  std::unordered_map<std::uint64_t, FindOp> finds_;
  std::unordered_map<std::uint64_t, IndexRpc> index_rpcs_;
  std::map<std::uint32_t, std::vector<Contact>> replica_cache_;

  OverlayStats stats_;
  obs::TracerRef tracer_;
  std::string trace_node_;
  obs::CounterRef lookups_c_, lookup_rpcs_c_, find_rpcs_c_, publish_rpcs_c_,
      timeouts_c_, shard_failures_c_;
};

}  // namespace cg::p2p
