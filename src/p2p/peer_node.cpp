#include "p2p/peer_node.hpp"

#include <algorithm>
#include <stdexcept>

#include "serial/reader.hpp"

namespace cg::p2p {

PeerNode::PeerNode(net::Transport& transport, Clock clock, std::string peer_id)
    : transport_(transport),
      clock_(std::move(clock)),
      peer_id_(std::move(peer_id)),
      cache_(kCacheCapacity) {
  if (peer_id_.empty()) peer_id_ = transport_.local().value;
  transport_.set_handler([this](const net::Endpoint& from, serial::Frame f) {
    on_frame(from, std::move(f));
  });
}

void PeerNode::add_neighbor(const net::Endpoint& e) {
  if (e == endpoint()) return;  // no self-loops
  if (std::find(neighbors_.begin(), neighbors_.end(), e) == neighbors_.end()) {
    neighbors_.push_back(e);
  }
}

void PeerNode::join_group(const std::string& group) {
  if (std::find(groups_.begin(), groups_.end(), group) == groups_.end()) {
    groups_.push_back(group);
  }
}

void PeerNode::leave_group(const std::string& group) {
  groups_.erase(std::remove(groups_.begin(), groups_.end(), group),
                groups_.end());
}

Advertisement PeerNode::make_peer_advert(
    std::map<std::string, std::string> attrs) const {
  Advertisement a;
  a.kind = AdvertKind::kPeer;
  a.id = "peer:" + peer_id_;
  a.name = peer_id_;
  a.provider = transport_.local();
  a.attrs = std::move(attrs);
  if (!groups_.empty()) {
    std::string csv;
    for (const auto& g : groups_) {
      if (!csv.empty()) csv += ",";
      csv += g;
    }
    a.attrs[kGroupsAttr] = csv;
  }
  a.expires_at = clock_() + kAdvertLifetimeS;
  return a;
}

Advertisement PeerNode::make_pipe_advert(const std::string& pipe_name) const {
  Advertisement a;
  a.kind = AdvertKind::kPipe;
  a.id = "pipe:" + peer_id_ + ":" + pipe_name;
  a.name = pipe_name;
  a.provider = transport_.local();
  a.expires_at = clock_() + kAdvertLifetimeS;
  return a;
}

Advertisement PeerNode::make_module_advert(const std::string& module_name,
                                           const std::string& version) const {
  Advertisement a;
  a.kind = AdvertKind::kModule;
  a.id = "module:" + peer_id_ + ":" + module_name + "@" + version;
  a.name = module_name;
  a.provider = transport_.local();
  a.attrs["version"] = version;
  a.expires_at = clock_() + kAdvertLifetimeS;
  return a;
}

void PeerNode::publish_local(const Advertisement& a) {
  cache_.put(a, clock_());
}

void PeerNode::set_obs(obs::Tracer* tracer, std::string_view node) {
  tracer_ = tracer;
  trace_node_ = node.empty() ? peer_id_ : std::string(node);
}

void PeerNode::publish_to(const net::Endpoint& target,
                          const std::vector<Advertisement>& adverts) {
  PublishMsg m;
  m.adverts = adverts;
  m.trace = trace_ctx_;
  transport_.send(target, encode(m));
  stats_.adverts_published += adverts.size();
}

std::uint64_t PeerNode::fresh_query_id() {
  // Mix the peer id hash in so ids from different peers don't collide in
  // seen-sets even though each node counts from 1.
  return (std::hash<std::string>{}(peer_id_) << 20) ^ next_query_++;
}

std::uint64_t PeerNode::discover_flood(const Query& q, int ttl,
                                       ResponseHandler on,
                                       std::uint64_t reuse_id) {
  const std::uint64_t id = reuse_id != 0 ? reuse_id : fresh_query_id();
  ++stats_.queries_initiated;

  // Mark our own copy as seen (at this reach) so a neighbour echoing it
  // back is dropped; a reused id widens the existing mark.
  seen_gate(endpoint(), id,
            static_cast<std::uint8_t>(std::clamp(ttl, 0, 255)));

  // Local cache may already answer.
  auto local = find_local(q, kMaxResponseAdverts);
  pending_[id] = std::move(on);
  if (!local.empty()) pending_[id](local);

  if (tracer_) {
    tracer_.event(trace_node_, "discovery.query", trace_ctx_,
                  "qid=" + std::to_string(id) + " ttl=" + std::to_string(ttl));
  }

  if (ttl > 0) {
    QueryMsg m;
    m.query_id = id;
    m.origin = endpoint();
    m.ttl = static_cast<std::uint8_t>(std::min(ttl, 255));
    m.query = q;
    m.trace = trace_ctx_;
    for (const auto& n : neighbors_) {
      transport_.send(n, encode(m));
      ++stats_.queries_forwarded;
    }
    // A flood is latency-sensitive fan-out: push coalesced frames out now
    // rather than letting them sit out a batch flush tick.
    transport_.flush();
  }
  return id;
}

std::uint64_t PeerNode::discover_rendezvous(const Query& q,
                                            ResponseHandler on) {
  const std::uint64_t id = fresh_query_id();
  ++stats_.queries_initiated;
  seen_gate(endpoint(), id, 2);

  auto local = find_local(q, kMaxResponseAdverts);
  pending_[id] = std::move(on);
  if (!local.empty()) pending_[id](local);

  if (tracer_) {
    tracer_.event(trace_node_, "discovery.query", trace_ctx_,
                  "qid=" + std::to_string(id) + " ttl=2");
  }

  if (!rendezvous_.empty()) {
    QueryMsg m;
    m.query_id = id;
    m.origin = endpoint();
    m.ttl = 2;  // rendezvous may fan out one more hop to its fellows
    m.query = q;
    m.trace = trace_ctx_;
    transport_.send(rendezvous_.front(), encode(m));
    ++stats_.queries_forwarded;
  }
  return id;
}

void PeerNode::cancel(std::uint64_t query_id) { pending_.erase(query_id); }

std::vector<Advertisement> PeerNode::find_local(const Query& q,
                                                std::size_t limit) {
  return cache_.find(q, clock_(), limit);
}

PeerNode::SeenGate PeerNode::seen_gate(const net::Endpoint& origin,
                                       std::uint64_t query_id,
                                       std::uint8_t ttl) {
  const double now = clock_();
  while (!seen_fifo_.empty() &&
         seen_fifo_.front().first + kSeenQueryHorizonS <= now) {
    seen_.erase(seen_fifo_.front().second);
    seen_fifo_.pop_front();
  }
  const SeenKey key{std::hash<std::string>{}(origin.value), query_id};
  auto it = seen_.find(key);
  if (it != seen_.end()) {
    if (ttl <= it->second) return SeenGate::kDuplicate;
    it->second = ttl;  // wider ring of the same query: extend the frontier
    return SeenGate::kWiden;
  }
  seen_.emplace(key, ttl);
  seen_fifo_.emplace_back(now, key);
  if (seen_fifo_.size() > kSeenQueryCapacity) {
    seen_.erase(seen_fifo_.front().second);
    seen_fifo_.pop_front();
  }
  return SeenGate::kNew;
}

void PeerNode::route(serial::FrameType type, net::FrameHandler h) {
  // at() throws std::out_of_range, a std::logic_error, for unknown types.
  net::FrameHandler& slot = routes_.at(static_cast<std::size_t>(type));
  if (slot || type == serial::FrameType::kDiscovery) {
    throw std::logic_error("PeerNode::route: frame type already routed");
  }
  slot = std::move(h);
}

void PeerNode::on_frame(const net::Endpoint& from, serial::Frame frame) {
  if (frame.type != serial::FrameType::kDiscovery) {
    const auto i = static_cast<std::size_t>(frame.type);
    if (i < routes_.size() && routes_[i]) routes_[i](from, std::move(frame));
    return;
  }
  switch (discovery_type(frame)) {
    case DiscoveryMsgType::kQuery:
      handle_query(from, decode_query(frame));
      break;
    case DiscoveryMsgType::kResponse:
      handle_response(decode_response(frame));
      break;
    case DiscoveryMsgType::kPublish:
      handle_publish(decode_publish(frame));
      break;
    default:
      throw serial::DecodeError("unknown discovery message type");
  }
}

void PeerNode::handle_query(const net::Endpoint& from, QueryMsg m) {
  const SeenGate gate = seen_gate(m.origin, m.query_id, m.ttl);
  if (gate == SeenGate::kDuplicate) {
    ++stats_.duplicate_queries;
    return;
  }
  if (gate == SeenGate::kNew) {
    ++stats_.queries_received;
    if (tracer_) {
      tracer_.event(trace_node_, "discovery.query_recv", m.trace,
                    "qid=" + std::to_string(m.query_id) +
                        " ttl=" + std::to_string(m.ttl));
    }
  } else {
    ++stats_.widened_queries;
  }

  // Answer what we can, straight back to the origin. The response echoes
  // the query's causal context so the round stays inside one trace.
  // Widened re-arrivals answer again on purpose: the cache may have
  // gained matches since the narrower ring (a migrated pipe re-advertises
  // mid-search), and origins dedup responses by advert id anyway.
  auto matches = find_local(m.query, kMaxResponseAdverts);
  if (!matches.empty()) {
    ResponseMsg r;
    r.query_id = m.query_id;
    r.adverts = std::move(matches);
    r.trace = m.trace;
    transport_.send(m.origin, encode(r));
    ++stats_.responses_sent;
  }

  // Propagate. Plain peers flood to neighbours; rendezvous fan out to the
  // other rendezvous instead (one extra hop at most).
  if (m.ttl <= 1) return;
  QueryMsg fwd = m;
  fwd.ttl = static_cast<std::uint8_t>(m.ttl - 1);
  if (is_rendezvous_) {
    fwd.ttl = 1;  // fellow rendezvous answer but do not propagate further
    for (const auto& r : rendezvous_) {
      if (r == endpoint() || r == from) continue;
      transport_.send(r, encode(fwd));
      ++stats_.queries_forwarded;
    }
  } else {
    for (const auto& n : neighbors_) {
      if (n == from) continue;
      transport_.send(n, encode(fwd));
      ++stats_.queries_forwarded;
    }
  }
}

void PeerNode::handle_response(ResponseMsg m) {
  ++stats_.responses_received;
  if (tracer_) {
    tracer_.event(trace_node_, "discovery.response_recv", m.trace,
                  "qid=" + std::to_string(m.query_id) +
                      " adverts=" + std::to_string(m.adverts.size()));
  }
  // Remember what we learned -- answered queries warm the whole path's
  // cache in JXTA; here the origin's cache.
  const double t = clock_();
  for (const auto& a : m.adverts) cache_.put(a, t);

  auto it = pending_.find(m.query_id);
  if (it == pending_.end()) return;  // cancelled or unknown: ignore
  it->second(m.adverts);
}

void PeerNode::handle_publish(PublishMsg m) {
  // Only a rendezvous indexes other peers' adverts. A plain peer's cache
  // answers discovery and pipe binds, so it holds only what the peer
  // published itself or learned from its own queries.
  if (!is_rendezvous_) {
    ++stats_.publishes_refused;
    return;
  }
  const double t = clock_();
  for (const auto& a : m.adverts) {
    cache_.put(a, t);
    ++stats_.publishes_received;
  }
}

}  // namespace cg::p2p
