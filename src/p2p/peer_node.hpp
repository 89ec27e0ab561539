// ConGrid -- peer node: overlay membership, advertisement cache, discovery.
//
// A PeerNode is the P2P personality of a Consumer Grid host. It owns the
// advertisement cache, knows its overlay neighbours, and implements the
// discovery protocols compared in experiment E4:
//
//   * flooding  -- forward the query to all neighbours with a TTL, answer
//     from the local cache, respond directly to the origin. This is the
//     "flooding mechanism ... [that] severely restricts scalability" the
//     paper's section 4 discusses;
//   * rendezvous -- peers publish their adverts to super-peers; queries go
//     to a rendezvous, which answers from its cache and (once) fans the
//     query out to fellow rendezvous. This is the JXTA-style mitigation;
//   * expanding ring -- retried flooding with growing TTL (discovery.hpp).
//
// PeerNode installs itself as the transport's frame handler and consumes
// kDiscovery frames; one whose subtype is not a query, response or publish
// is malformed and throws serial::DecodeError, which the reliable layer
// counts and drops. Every other frame type goes to the one handler its
// consumer registered with route(): kData to pipes (pipes.hpp), kCode and
// kControl to the Triana service. Unrouted types are dropped.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/time.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "p2p/cache.hpp"
#include "p2p/messages.hpp"

namespace cg::p2p {

/// Time source, in seconds. Bind to SimNetwork::now for simulated peers or
/// to a steady_clock lambda for real ones. Advertisement expiry, cache
/// purging and search timeouts all read this clock.
using Clock = net::Clock;

/// Deferred execution: run `fn` after `delay_s`. Bind to
/// SimNetwork::schedule (simulated) or a local timer wheel (real).
using Scheduler = net::Scheduler;

struct PeerNodeStats {
  std::uint64_t queries_initiated = 0;
  std::uint64_t queries_received = 0;   ///< excluding duplicates
  std::uint64_t duplicate_queries = 0;
  std::uint64_t widened_queries = 0;    ///< re-seen with a larger TTL
  std::uint64_t queries_forwarded = 0;  ///< messages sent onward
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t adverts_published = 0;
  std::uint64_t publishes_received = 0;  ///< adverts a rendezvous took in
  std::uint64_t publishes_refused = 0;   ///< publishes sent to a plain peer
};

class PeerNode {
 public:
  static constexpr double kAdvertLifetimeS = 300.0;  ///< on own adverts
  static constexpr std::size_t kCacheCapacity = 4096;
  /// Seen (origin, id) query keys are forgotten this long after their
  /// first arrival: the reliable layer gives up on a frame after its
  /// deadline_s (20 s), so no retransmitted copy of a query outlives it,
  /// and an expanding ring widens within a few ring timeouts. A copy that
  /// does arrive later counts as a new query, still bounded by its TTL.
  static constexpr double kSeenQueryHorizonS = 20.0;
  /// Hard cap on remembered keys, oldest forgotten first, against a flood
  /// of distinct ids inside the horizon.
  static constexpr std::size_t kSeenQueryCapacity = 8192;
  static constexpr std::size_t kMaxResponseAdverts = 16;  ///< per response

  /// The transport must outlive the node. The node takes over the
  /// transport's frame handler. An empty `peer_id` defaults to the
  /// endpoint value.
  PeerNode(net::Transport& transport, Clock clock, std::string peer_id = {});

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  const std::string& id() const { return peer_id_; }
  net::Endpoint endpoint() const { return transport_.local(); }
  net::Transport& transport() { return transport_; }
  double now() const { return clock_(); }

  // -- overlay -----------------------------------------------------------
  void add_neighbor(const net::Endpoint& e);
  const std::vector<net::Endpoint>& neighbors() const { return neighbors_; }

  // -- virtual peer groups (paper section 4) --------------------------------
  /// Join/leave a named virtual peer group; membership is folded into the
  /// "groups" attribute of subsequently built peer adverts.
  void join_group(const std::string& group);
  void leave_group(const std::string& group);
  const std::vector<std::string>& groups() const { return groups_; }

  // -- advertisements ------------------------------------------------------
  /// Build a peer advert describing this node with the given capability
  /// attributes (e.g. {"cpu_mhz","2000"},{"free_mem_mb","256"}). Virtual
  /// group memberships are added as the "groups" attribute.
  Advertisement make_peer_advert(
      std::map<std::string, std::string> attrs) const;

  /// Build a pipe advert for an input pipe hosted here.
  Advertisement make_pipe_advert(const std::string& pipe_name) const;

  /// Build a module advert for code served from here.
  Advertisement make_module_advert(const std::string& module_name,
                                   const std::string& version) const;

  /// Insert into the local cache (it will answer matching queries).
  void publish_local(const Advertisement& a);

  /// Push adverts to a rendezvous's cache -- the peer->rendezvous publish
  /// path. A receiver that is not a rendezvous refuses them.
  void publish_to(const net::Endpoint& target,
                  const std::vector<Advertisement>& adverts);

  AdvertisementCache& cache() { return cache_; }

  // -- rendezvous role ------------------------------------------------------
  /// A rendezvous node accepts publishes, answers queries from its cache
  /// and forwards them (once) to fellow rendezvous.
  void set_rendezvous_role(bool on) { is_rendezvous_ = on; }
  bool is_rendezvous() const { return is_rendezvous_; }
  /// Known rendezvous peers: the publish/query target for edge peers, the
  /// fan-out set for rendezvous themselves.
  void add_rendezvous(const net::Endpoint& e) { rendezvous_.push_back(e); }
  const std::vector<net::Endpoint>& rendezvous() const { return rendezvous_; }

  // -- discovery -------------------------------------------------------------
  /// Called once per response message for a query this node initiated.
  using ResponseHandler =
      std::function<void(const std::vector<Advertisement>&)>;

  /// Flood `q` to all neighbours with the given TTL. Also checks the local
  /// cache synchronously. Returns the query id (use cancel() when done).
  ///
  /// `reuse_id` lets an expanding-ring retry re-issue the SAME query id at
  /// a larger TTL: peers that consumed the narrow ring recognise the id,
  /// skip re-answering, and only forward the widened frontier -- the
  /// visited set carries across rings instead of being re-flooded.
  std::uint64_t discover_flood(const Query& q, int ttl, ResponseHandler on,
                               std::uint64_t reuse_id = 0);

  /// Ask this node's first known rendezvous.
  std::uint64_t discover_rendezvous(const Query& q, ResponseHandler on);

  /// Stop routing responses for a query id (handlers may be called again
  /// otherwise, as stragglers arrive).
  void cancel(std::uint64_t query_id);

  /// Query only the local cache.
  std::vector<Advertisement> find_local(const Query& q,
                                        std::size_t limit = SIZE_MAX);

  // -- frame plumbing ---------------------------------------------------------
  /// Deliver every frame of `type` to `h`. One handler per type, so the
  /// order consumers register in does not matter. Throws std::logic_error
  /// for a type that already has a handler, and for kDiscovery, which this
  /// node consumes itself.
  void route(serial::FrameType type, net::FrameHandler h);

  // -- observability -----------------------------------------------------
  /// Bind a tracer: query initiation, query/response arrival and publish
  /// arrival become instant events on `node` (the peer id by default),
  /// each stamped with the causal context the message carried.
  void set_obs(obs::Tracer* tracer, std::string_view node = {});

  /// Adopt a causal context: queries and publishes this node initiates are
  /// stamped with it, so whole discovery rounds (including every forwarded
  /// hop and response) hang off the run that issued them. Forwarded
  /// queries keep the ORIGINATOR's context; responses echo the query's.
  void set_trace(const obs::TraceContext& ctx) { trace_ctx_ = ctx; }
  const obs::TraceContext& trace() const { return trace_ctx_; }

  const PeerNodeStats& stats() const { return stats_; }

 private:
  /// How an arriving (origin, query id, ttl) relates to what we've seen.
  enum class SeenGate : std::uint8_t {
    kNew,        ///< first sighting: answer and forward
    kWiden,      ///< same query back with MORE ttl: forward, don't re-answer
    kDuplicate,  ///< already covered at this reach or better: drop
  };

  void on_frame(const net::Endpoint& from, serial::Frame frame);
  void handle_query(const net::Endpoint& from, QueryMsg m);
  void handle_response(ResponseMsg m);
  void handle_publish(PublishMsg m);
  SeenGate seen_gate(const net::Endpoint& origin, std::uint64_t query_id,
                     std::uint8_t ttl);
  std::uint64_t fresh_query_id();

  net::Transport& transport_;
  Clock clock_;
  std::string peer_id_;
  AdvertisementCache cache_;
  std::vector<net::Endpoint> neighbors_;
  std::vector<std::string> groups_;
  std::vector<net::Endpoint> rendezvous_;
  bool is_rendezvous_ = false;

  /// A seen query: a 64-bit hash of its origin endpoint and its id. No
  /// per-query string, so a full seen-set stays small, and no table of
  /// origins that wire input could grow. A hash collision can only merge
  /// two origins that also reuse the same query id.
  struct SeenKey {
    std::uint64_t origin = 0;
    std::uint64_t id = 0;
    bool operator==(const SeenKey&) const = default;
  };
  struct SeenKeyHash {
    std::size_t operator()(const SeenKey& k) const {
      return std::hash<std::uint64_t>{}(k.id ^
                                        (k.origin * 0x9E3779B97F4A7C15ull));
    }
  };

  /// Seen queries, valued with the largest remaining TTL witnessed -- an
  /// expanding ring's wider retry re-arrives with MORE ttl and must extend
  /// the frontier without being re-answered.
  std::unordered_map<SeenKey, std::uint8_t, SeenKeyHash> seen_;
  /// Keys of seen_ in arrival order, with their arrival time.
  std::deque<std::pair<double, SeenKey>> seen_fifo_;

  std::unordered_map<std::uint64_t, ResponseHandler> pending_;
  std::uint64_t next_query_ = 1;

  /// Indexed by frame type; types past the end are never routed.
  std::array<net::FrameHandler,
             static_cast<std::size_t>(serial::FrameType::kBatch) + 1>
      routes_;
  PeerNodeStats stats_;
  obs::TracerRef tracer_;
  std::string trace_node_;
  obs::TraceContext trace_ctx_;
};

}  // namespace cg::p2p
