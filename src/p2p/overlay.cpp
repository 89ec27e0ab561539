#include "p2p/overlay.hpp"

#include <algorithm>
#include <cmath>

namespace cg::p2p {
namespace {

constexpr std::size_t kAlpha = 3;  ///< parallel RPCs per lookup round
constexpr double kRpcTimeoutS = 1.0;
const std::string kPrimaryAttr = "cpu_mhz";
constexpr std::size_t kMaxResponseAdverts = 64;  ///< cap per index reply

}  // namespace

OverlayNode::OverlayNode(PeerNode& node, Scheduler scheduler,
                         OverlayConfig config)
    : node_(node),
      scheduler_(std::move(scheduler)),
      config_(std::move(config)),
      id_(node_id_of(node.id())),
      routing_(id_, config_.routing),
      index_(kPrimaryAttr) {
  node_.set_discovery_extension(
      [this](const net::Endpoint& from, const serial::Frame& f) {
        on_frame(from, f);
      });
}

void OverlayNode::ensure_seeded() {
  if (seeded_) return;
  seeded_ = true;
  if (!config_.bootstrap) return;
  const double now = node_.now();
  for (const auto& c : config_.bootstrap(id_)) {
    routing_.observe_candidate(c, now);
  }
}

void OverlayNode::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                          std::string_view scope) {
  tracer_ = tracer;
  trace_node_ = node_.id();
  lookups_c_ = registry.counter(obs::scoped(scope, "overlay.lookups"));
  lookup_rpcs_c_ = registry.counter(obs::scoped(scope, "overlay.lookup_rpcs"));
  find_rpcs_c_ = registry.counter(obs::scoped(scope, "overlay.find_rpcs"));
  publish_rpcs_c_ =
      registry.counter(obs::scoped(scope, "overlay.publish_rpcs"));
  timeouts_c_ = registry.counter(obs::scoped(scope, "overlay.rpc_timeouts"));
  shard_failures_c_ =
      registry.counter(obs::scoped(scope, "overlay.shard_failures"));
}

obs::TraceContext OverlayNode::rpc_context(std::uint64_t span) const {
  obs::TraceContext ctx = node_.trace();
  if (span != 0) ctx.parent_span = span;
  return ctx;
}

std::uint32_t OverlayNode::shard_of(double primary_value) const {
  if (config_.shards <= 1) return 0;
  const double width = config_.primary_hi - config_.primary_lo;
  if (width <= 0) return 0;
  const double frac = (primary_value - config_.primary_lo) / width;
  if (frac <= 0) return 0;
  if (frac >= 1) return config_.shards - 1;
  return static_cast<std::uint32_t>(frac * config_.shards);
}

std::uint32_t OverlayNode::first_shard(const Query& q) const {
  const auto it = q.require_min.find(kPrimaryAttr);
  if (it == q.require_min.end()) return 0;
  return shard_of(it->second);
}

// ---------------------------------------------------------------- frames

void OverlayNode::on_frame(const net::Endpoint& from,
                           const serial::Frame& frame) {
  switch (discovery_type(frame)) {
    case DiscoveryMsgType::kFindNode:
      handle_find_node(from, decode_find_node(frame));
      break;
    case DiscoveryMsgType::kFindNodeReply:
      handle_find_node_reply(from, decode_find_node_reply(frame));
      break;
    case DiscoveryMsgType::kIndexPut:
      handle_index_put(decode_index_put(frame));
      break;
    case DiscoveryMsgType::kIndexQuery:
      handle_index_query(decode_index_query(frame));
      break;
    case DiscoveryMsgType::kIndexReply:
      handle_index_reply(decode_index_reply(frame));
      break;
    default:
      break;  // unknown future subtype: drop
  }
}

void OverlayNode::handle_find_node(const net::Endpoint& from, FindNodeMsg m) {
  (void)from;
  ensure_seeded();
  ++stats_.find_nodes_served;
  FindNodeReplyMsg r;
  r.rpc_id = m.rpc_id;
  r.from = id_.bits;
  for (const auto& c :
       routing_.closest(NodeId{m.target}, config_.routing.k)) {
    r.contacts.push_back(WireContact{c.id.bits, c.endpoint});
  }
  r.trace = m.trace;
  node_.transport().send(m.origin, encode(r));
}

void OverlayNode::handle_find_node_reply(const net::Endpoint& from,
                                         FindNodeReplyMsg m) {
  auto rpc_it = find_node_rpcs_.find(m.rpc_id);
  if (rpc_it == find_node_rpcs_.end()) return;  // late: already timed out
  const std::uint64_t lookup_id = rpc_it->second.lookup_id;
  find_node_rpcs_.erase(rpc_it);

  const double now = node_.now();
  // The responder answered directly: heartbeat-grade evidence.
  routing_.observe(Contact{NodeId{m.from}, from}, now);

  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup& l = it->second;
  l.responded.insert(m.from);
  --l.pending;
  for (const auto& wc : m.contacts) {
    if (wc.id == id_.bits) continue;
    // Hearsay joins the shortlist only, never the routing table -- a
    // contact earns a table slot by answering us directly (observe above).
    // Inserting hearsay would resurrect dead contacts that other peers
    // haven't evicted yet, defeating the timeout-driven eviction.
    add_to_shortlist(l, Contact{NodeId{wc.id}, wc.endpoint});
  }
  lookup_step(lookup_id);
}

void OverlayNode::handle_index_put(IndexPutMsg m) {
  if (!index_enabled_) return;  // not serving this shard: drop
  const double now = node_.now();
  for (const auto& a : m.adverts) {
    index_.put(a, now);
    ++stats_.index_puts_received;
  }
}

void OverlayNode::handle_index_query(IndexQueryMsg m) {
  // A non-index peer stays silent; the origin's timeout fails over to the
  // next replica.
  if (!index_enabled_) return;
  ++stats_.index_queries_served;
  IndexReplyMsg r;
  r.rpc_id = m.rpc_id;
  r.shard = m.shard;
  const std::size_t cap =
      m.limit != 0 ? m.limit : kMaxResponseAdverts;
  r.adverts = index_.find(m.query, node_.now(), cap);
  r.trace = m.trace;
  node_.transport().send(m.origin, encode(r));
}

void OverlayNode::handle_index_reply(IndexReplyMsg m) {
  auto rpc_it = index_rpcs_.find(m.rpc_id);
  if (rpc_it == index_rpcs_.end()) return;
  const IndexRpc rpc = rpc_it->second;
  index_rpcs_.erase(rpc_it);

  if (rpc.attempt < rpc.replicas.size()) {
    routing_.observe(rpc.replicas[rpc.attempt], node_.now());
  }
  auto it = finds_.find(rpc.find_id);
  if (it == finds_.end()) return;
  FindOp& f = it->second;
  for (const auto& a : m.adverts) {
    if (f.seen_ids.insert(a.id).second) f.found.push_back(a);
  }
  shard_done(rpc.find_id);
}

// ---------------------------------------------------------------- lookup

void OverlayNode::add_to_shortlist(Lookup& l, const Contact& c) {
  const std::uint64_t d = xor_distance(c.id, l.target);
  auto pos = std::lower_bound(
      l.shortlist.begin(), l.shortlist.end(), d,
      [&l](const Contact& a, std::uint64_t dist) {
        return xor_distance(a.id, l.target) < dist;
      });
  if (pos != l.shortlist.end() && pos->id == c.id) return;
  l.shortlist.insert(pos, c);
}

void OverlayNode::lookup(NodeId target, LookupHandler on) {
  ensure_seeded();
  ++stats_.lookups;
  lookups_c_.inc();
  const std::uint64_t lookup_id = next_id_++;
  Lookup l;
  l.target = target;
  l.on = std::move(on);
  if (tracer_) {
    l.span = tracer_.begin_span(trace_node_, "overlay.lookup", node_.trace(),
                                "target=" + std::to_string(target.bits));
  }
  for (const auto& c : routing_.closest(target, config_.routing.k)) {
    add_to_shortlist(l, c);
  }
  // This node is part of its own ring: if it sits among the k closest to
  // the target it belongs in the result (a shard's nearest replica may be
  // the publisher itself). Pre-marked responded, so no RPC is spent on it.
  add_to_shortlist(l, Contact{id_, node_.endpoint()});
  l.queried.insert(id_.bits);
  l.responded.insert(id_.bits);
  lookups_.emplace(lookup_id, std::move(l));
  lookup_step(lookup_id);
}

void OverlayNode::send_find_node(std::uint64_t lookup_id, Lookup& l,
                                 const Contact& c) {
  const std::uint64_t rpc_id = next_id_++;
  FindNodeMsg m;
  m.rpc_id = rpc_id;
  m.origin = node_.endpoint();
  m.target = l.target.bits;
  m.trace = rpc_context(l.span);
  find_node_rpcs_[rpc_id] = FindNodeRpc{lookup_id, c};
  l.queried.insert(c.id.bits);
  ++l.pending;
  ++stats_.lookup_rpcs;
  lookup_rpcs_c_.inc();
  node_.transport().send(c.endpoint, encode(m));
  scheduler_(kRpcTimeoutS, [this, rpc_id] {
    auto it = find_node_rpcs_.find(rpc_id);
    if (it == find_node_rpcs_.end()) return;  // answered in time
    const FindNodeRpc rpc = it->second;
    find_node_rpcs_.erase(it);
    ++stats_.rpc_timeouts;
    timeouts_c_.inc();
    routing_.failure(rpc.contact.id, node_.now());
    auto lit = lookups_.find(rpc.lookup_id);
    if (lit == lookups_.end()) return;
    lit->second.failed.insert(rpc.contact.id.bits);
    --lit->second.pending;
    lookup_step(rpc.lookup_id);
  });
}

void OverlayNode::lookup_step(std::uint64_t lookup_id) {
  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup& l = it->second;
  // Kademlia convergence: only the k closest non-failed shortlist entries
  // are ever candidates; when all of them have been queried and no RPC is
  // in flight, the lookup cannot improve and terminates.
  while (l.pending < kAlpha) {
    const Contact* next = nullptr;
    std::size_t considered = 0;
    for (const auto& c : l.shortlist) {
      if (l.failed.contains(c.id.bits)) continue;
      if (considered++ >= config_.routing.k) break;
      if (l.queried.contains(c.id.bits)) continue;
      next = &c;
      break;
    }
    if (next == nullptr) break;
    send_find_node(lookup_id, l, *next);
  }
  if (l.pending == 0) lookup_finish(lookup_id);
}

void OverlayNode::lookup_finish(std::uint64_t lookup_id) {
  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup l = std::move(it->second);
  lookups_.erase(it);
  std::vector<Contact> result;
  for (const auto& c : l.shortlist) {
    if (!l.responded.contains(c.id.bits)) continue;
    result.push_back(c);
    if (result.size() >= config_.routing.k) break;
  }
  if (tracer_ && l.span != 0) {
    tracer_.end_span(l.span, trace_node_, "overlay.lookup",
                     "contacts=" + std::to_string(result.size()));
  }
  if (l.on) l.on(std::move(result));
}

// ------------------------------------------------------------ rendezvous

void OverlayNode::replicas_for(
    std::uint32_t shard, std::function<void(std::vector<Contact>)> use) {
  auto it = replica_cache_.find(shard);
  if (it != replica_cache_.end()) {
    use(it->second);
    return;
  }
  lookup(shard_key(shard), [this, shard,
                            use = std::move(use)](std::vector<Contact> cs) {
    if (cs.size() > config_.replication) cs.resize(config_.replication);
    replica_cache_[shard] = cs;
    use(std::move(cs));
  });
}

void OverlayNode::publish(const std::vector<Advertisement>& adverts,
                          PublishHandler on) {
  ensure_seeded();
  std::map<std::uint32_t, std::vector<Advertisement>> by_shard;
  for (const auto& a : adverts) {
    const auto v = a.numeric_attr(kPrimaryAttr);
    by_shard[shard_of(v ? *v : config_.primary_lo)].push_back(a);
    ++stats_.publishes;
  }
  // Shared across the per-shard async resolutions; fires the handler once
  // the last shard reports in.
  struct PublishState {
    std::size_t outstanding;
    std::size_t puts = 0;
    PublishHandler on;
  };
  auto state = std::make_shared<PublishState>();
  state->outstanding = by_shard.size();
  state->on = std::move(on);
  if (by_shard.empty()) {
    if (state->on) state->on(0);
    return;
  }
  for (auto& [shard, group] : by_shard) {
    replicas_for(shard, [this, state, shard,
                         group = std::move(group)](std::vector<Contact> rs) {
      IndexPutMsg m;
      m.shard = shard;
      m.adverts = group;
      m.trace = rpc_context(0);
      for (const auto& r : rs) {
        if (r.endpoint == node_.endpoint()) {
          // We are one of the shard's replicas: store locally, no wire hop.
          handle_index_put(m);
          ++state->puts;
          continue;
        }
        node_.transport().send(r.endpoint, encode(m));
        ++state->puts;
        ++stats_.publish_rpcs;
        publish_rpcs_c_.inc();
      }
      if (--state->outstanding == 0 && state->on) state->on(state->puts);
    });
  }
}

void OverlayNode::find(const Query& q, std::size_t limit, FindHandler on) {
  ensure_seeded();
  ++stats_.finds;
  const std::uint32_t lo = first_shard(q);
  const std::uint64_t find_id = next_id_++;
  FindOp f;
  f.query = q;
  f.limit = limit;
  f.shards_outstanding = config_.shards - lo;
  f.on = std::move(on);
  if (tracer_) {
    f.span = tracer_.begin_span(
        trace_node_, "overlay.find", node_.trace(),
        "shards=" + std::to_string(f.shards_outstanding));
  }
  finds_.emplace(find_id, std::move(f));
  for (std::uint32_t s = lo; s < config_.shards; ++s) {
    replicas_for(s, [this, find_id, s](std::vector<Contact> rs) {
      if (rs.empty()) {
        ++stats_.shard_failures;
        shard_failures_c_.inc();
        shard_done(find_id);
        return;
      }
      send_index_query(find_id, s, 0, std::move(rs));
    });
  }
}

void OverlayNode::send_index_query(std::uint64_t find_id, std::uint32_t shard,
                                   std::size_t attempt,
                                   std::vector<Contact> replicas) {
  auto fit = finds_.find(find_id);
  if (fit == finds_.end()) return;
  FindOp& f = fit->second;
  const Contact self_or_remote = replicas[attempt];
  if (self_or_remote.endpoint == node_.endpoint()) {
    // We are this shard's replica: answer from the local index (or fail
    // over immediately when we don't serve indexes -- no point waiting
    // out a timeout against ourselves).
    if (index_enabled_) {
      ++stats_.index_queries_served;
      const std::size_t cap =
          std::min<std::size_t>(f.limit, kMaxResponseAdverts);
      for (const auto& a : index_.find(f.query, node_.now(), cap)) {
        if (f.seen_ids.insert(a.id).second) f.found.push_back(a);
      }
      shard_done(find_id);
    } else if (attempt + 1 < replicas.size()) {
      send_index_query(find_id, shard, attempt + 1, std::move(replicas));
    } else {
      replica_cache_.erase(shard);
      ++stats_.shard_failures;
      shard_failures_c_.inc();
      shard_done(find_id);
    }
    return;
  }
  const std::uint64_t rpc_id = next_id_++;
  IndexQueryMsg m;
  m.rpc_id = rpc_id;
  m.origin = node_.endpoint();
  m.shard = shard;
  m.limit = static_cast<std::uint32_t>(
      std::min<std::size_t>(f.limit, kMaxResponseAdverts));
  m.query = f.query;
  m.trace = rpc_context(f.span);
  const Contact target = replicas[attempt];
  index_rpcs_[rpc_id] = IndexRpc{find_id, shard, attempt, replicas};
  ++stats_.find_rpcs;
  find_rpcs_c_.inc();
  node_.transport().send(target.endpoint, encode(m));
  scheduler_(kRpcTimeoutS, [this, rpc_id] {
    auto it = index_rpcs_.find(rpc_id);
    if (it == index_rpcs_.end()) return;  // answered in time
    IndexRpc rpc = std::move(it->second);
    index_rpcs_.erase(it);
    ++stats_.rpc_timeouts;
    timeouts_c_.inc();
    routing_.failure(rpc.replicas[rpc.attempt].id, node_.now());
    if (rpc.attempt + 1 < rpc.replicas.size()) {
      send_index_query(rpc.find_id, rpc.shard, rpc.attempt + 1,
                       std::move(rpc.replicas));
      return;
    }
    // Every replica of the shard is unresponsive: the cached group is
    // stale; forget it so the next query re-looks-up the ring.
    replica_cache_.erase(rpc.shard);
    ++stats_.shard_failures;
    shard_failures_c_.inc();
    shard_done(rpc.find_id);
  });
}

void OverlayNode::shard_done(std::uint64_t find_id) {
  auto it = finds_.find(find_id);
  if (it == finds_.end()) return;
  FindOp& f = it->second;
  if (--f.shards_outstanding > 0) return;
  FindOp done = std::move(f);
  finds_.erase(it);
  if (done.found.size() > done.limit) done.found.resize(done.limit);
  if (tracer_ && done.span != 0) {
    tracer_.end_span(done.span, trace_node_, "overlay.find",
                     "adverts=" + std::to_string(done.found.size()));
  }
  if (done.on) done.on(std::move(done.found));
}

// ----------------------------------------------------------- maintenance

std::size_t OverlayNode::maintain(double now, std::uint64_t seed) {
  ensure_seeded();
  const auto evicted = routing_.sweep(now);
  for (const auto& c : evicted) {
    // A dead contact may have been a cached replica; forget those groups.
    for (auto it = replica_cache_.begin(); it != replica_cache_.end();) {
      const auto& group = it->second;
      const bool hit = std::any_of(
          group.begin(), group.end(),
          [&c](const Contact& r) { return r.id == c.id; });
      it = hit ? replica_cache_.erase(it) : ++it;
    }
  }
  for (const NodeId target : routing_.refresh_targets(now, seed)) {
    lookup(target, {});
  }
  return evicted.size();
}

}  // namespace cg::p2p
