#include "net/reliable.hpp"

#include <algorithm>
#include <stdexcept>

#include "serial/reader.hpp"

namespace cg::net {
namespace {

// Short type tag used in transfer-event details; congrid-trace buckets
// transfers by it (and excludes timing-sensitive discovery traffic from
// DAG signatures).
const char* type_tag(serial::FrameType t) {
  switch (t) {
    case serial::FrameType::kControl:
      return "control";
    case serial::FrameType::kData:
      return "data";
    case serial::FrameType::kCode:
      return "code";
    case serial::FrameType::kDiscovery:
      return "discovery";
    case serial::FrameType::kHeartbeat:
      return "heartbeat";
    default:
      return "other";
  }
}

// Both directions spell the connection the same way -- "<src>><dst>" with
// endpoint values -- so the analyzer can pair a send with its recv on
// (conn, seq) alone.
std::string conn_name(const Endpoint& src, const Endpoint& dst) {
  return src.value + ">" + dst.value;
}

// Everything is sent reliably except the layer's own traffic, which is
// never re-wrapped, and liveness probes, which are only useful fresh.
bool is_reliable_type(serial::FrameType t) {
  return t != serial::FrameType::kReliable && t != serial::FrameType::kAck &&
         t != serial::FrameType::kBatch && t != serial::FrameType::kHeartbeat;
}

}  // namespace

ReliableTransport::ReliableTransport(Transport& inner, Clock clock,
                                     Scheduler scheduler,
                                     ReliableConfig config)
    : inner_(inner),
      clock_(std::move(clock)),
      scheduler_(std::move(scheduler)),
      config_(std::move(config)),
      rng_(config_.seed) {
  if (!(config_.rto_initial_s > 0.0) || !(config_.jitter_frac < 1.0)) {
    throw std::invalid_argument(
        "ReliableConfig: need rto_initial_s > 0 and jitter_frac < 1");
  }
  // jittered() scales by at least (1 - jitter_frac), also after rounding.
  min_first_rto_ =
      config_.rto_initial_s * (1.0 - std::max(config_.jitter_frac, 0.0));
  window_words_ = (config_.dedup_window + 63) / 64;
  inner_.set_handler([this](const Endpoint& from, serial::Frame f) {
    on_frame(from, std::move(f));
  });
}

void ReliableTransport::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                                std::string_view scope) {
  obs_.sent = registry.counter(obs::scoped(scope, "reliable.sent"));
  obs_.retransmits =
      registry.counter(obs::scoped(scope, "reliable.retransmits"));
  obs_.acked = registry.counter(obs::scoped(scope, "reliable.acked"));
  obs_.expired = registry.counter(obs::scoped(scope, "reliable.expired"));
  obs_.delivered = registry.counter(obs::scoped(scope, "reliable.delivered"));
  obs_.dedup_hits =
      registry.counter(obs::scoped(scope, "reliable.dedup_hits"));
  obs_.acks_sent = registry.counter(obs::scoped(scope, "reliable.acks_sent"));
  obs_.passthrough_sent =
      registry.counter(obs::scoped(scope, "reliable.passthrough_sent"));
  obs_.passthrough_delivered =
      registry.counter(obs::scoped(scope, "reliable.passthrough_delivered"));
  obs_.batches_sent =
      registry.counter(obs::scoped(scope, "reliable.batches_sent"));
  obs_.frames_coalesced =
      registry.counter(obs::scoped(scope, "reliable.frames_coalesced"));
  obs_.ack_latency_s =
      registry.histogram(obs::scoped(scope, "reliable.ack_latency_s"));
  obs_.backoff_wait_s =
      registry.histogram(obs::scoped(scope, "reliable.backoff_wait_s"));
  obs_.tracer = tracer;
  obs_.node = scope.empty() ? inner_.local().value : std::string(scope);
}

void ReliableTransport::set_trace(std::uint64_t trace_id) {
#if CONGRID_OBS_ENABLED
  trace_id_ = trace_id;
#else
  (void)trace_id;  // zeros stay on the wire; sizes are unchanged either way
#endif
}

double ReliableTransport::jittered(double delay_s) {
  if (config_.jitter_frac <= 0.0) return delay_s;
  return delay_s * (1.0 + config_.jitter_frac * (2.0 * rng_.uniform() - 1.0));
}

std::uint32_t ReliableTransport::intern(const Endpoint& ep) {
  const auto [it, fresh] = peer_index_.try_emplace(
      ep.value, static_cast<std::uint32_t>(peers_.size()));
  if (fresh) peers_.emplace_back().ep = ep;
  return it->second;
}

bool ReliableTransport::first_sighting(Peer& peer, std::uint64_t id) {
  if (window_words_ == 0) return true;
  const std::uint64_t window = window_words_ * 64;
  if (peer.seen.empty()) peer.seen.assign(window_words_, 0);
  // window is a whole number of words, so id % window lands on word
  // (id / 64) % window_words_, bit id % 64.
  const auto word = [&](std::uint64_t i) -> std::uint64_t& {
    return peer.seen[(i / 64) % window_words_];
  };
  const auto bit = [](std::uint64_t i) { return std::uint64_t{1} << (i % 64); };
  if (id > peer.top) {
    // Slide forward. The slots of the ids skipped over still hold ids that
    // just left the window: clear them.
    if (id - peer.top >= window) {
      std::fill(peer.seen.begin(), peer.seen.end(), 0);
    } else {
      for (std::uint64_t i = peer.top + 1; i < id; ++i) word(i) &= ~bit(i);
    }
    peer.top = id;
  } else if (peer.top - id >= window) {
    return true;  // below the window: no record, so deliver
  } else if (word(id) & bit(id)) {
    return false;
  }
  word(id) |= bit(id);
  return true;
}

void ReliableTransport::wire_send(std::uint32_t peer, serial::Frame frame) {
  Peer& p = peers_[peer];
  if (!config_.batch) {
    inner_.send(p.ep, std::move(frame));
    return;
  }
  if (frame.payload.size() >= config_.batch_bypass_bytes) {
    // Big frames gain nothing from coalescing; flush what's buffered first
    // so per-destination send order is preserved, then send it standalone.
    flush_dest(peer);
    ++stats_.batch_bypassed;
    inner_.send(p.ep, std::move(frame));
    return;
  }
  BatchBuf& b = p.batch;
  b.bytes += serial::kBatchEntryOverhead + frame.payload.size();
  b.frames.push_back(std::move(frame));
  if (b.frames.size() >= config_.batch_max_frames ||
      b.bytes >= config_.batch_max_bytes) {
    flush_dest(peer);
    return;
  }
  if (!b.flush_scheduled) {
    b.flush_scheduled = true;
    scheduler_(config_.batch_flush_s, [this, peer] { on_batch_timer(peer); });
  }
}

void ReliableTransport::on_batch_timer(std::uint32_t peer) {
  peers_[peer].batch.flush_scheduled = false;
  flush_dest(peer);
}

void ReliableTransport::flush_dest(std::uint32_t peer) {
  Peer& p = peers_[peer];
  if (p.batch.frames.empty()) return;
  std::vector<serial::Frame> frames = std::move(p.batch.frames);
  p.batch.frames.clear();
  p.batch.bytes = 0;
  if (frames.size() == 1) {
    // No point paying batch framing for one frame.
    inner_.send(p.ep, std::move(frames.front()));
    return;
  }
  ++stats_.batches_sent;
  stats_.frames_coalesced += frames.size();
  obs_.batches_sent.inc();
  obs_.frames_coalesced.inc(frames.size());
  inner_.send(p.ep, serial::encode_batch(frames));
}

void ReliableTransport::flush() {
  if (config_.batch) {
    // By index: a flush may re-enter send() and intern a new peer.
    for (std::uint32_t i = 0; i < peers_.size(); ++i) flush_dest(i);
  }
  inner_.flush();
}

void ReliableTransport::send(const Endpoint& to, serial::Frame frame) {
  const std::uint32_t peer = intern(to);
  if (!is_reliable_type(frame.type)) {
    ++stats_.passthrough_sent;
    obs_.passthrough_sent.inc();
    wire_send(peer, std::move(frame));
    return;
  }

  const MsgKey key{peer, peers_[peer].next_seq++};
  Pending p;
  p.first_sent_at = clock_();
  p.rto_s = config_.rto_initial_s;
  if (obs_.tracer) {
    p.span = obs_.tracer.begin_span(
        obs_.node, "reliable.msg",
        obs::TraceContext{trace_id_, 0, lamport_.now()},
        "seq=" + std::to_string(key.second) +
            " conn=" + conn_name(inner_.local(), to) + " type=" +
            type_tag(frame.type));
  }
  // The envelope's parent is the sending span: the receiver's recv event
  // (and anything caused by the delivery) hangs off it in the causal DAG.
  const obs::TraceContext wire_trace{trace_id_, p.span, lamport_.tick()};
  p.wire = serial::encode_envelope(key.second, frame, wire_trace);

  wire_send(peer, p.wire);
  ++stats_.sent;
  obs_.sent.inc();
  const double first_retry = jittered(p.rto_s);
  obs_.backoff_wait_s.observe(first_retry);
  p.due_at = p.first_sent_at + first_retry;
  due_.emplace(p.due_at, key);
  pending_.emplace(key, std::move(p));
  if (!retry_timer_armed_) arm_retry_timer();
}

void ReliableTransport::arm_retry_timer() {
  const double now = clock_();
  const double at = std::min(due_.begin()->first, now + min_first_rto_);
  retry_timer_armed_ = true;
  scheduler_(std::max(at - now, 0.0), [this] { on_retry_timer(); });
}

void ReliableTransport::on_retry_timer() {
  // Handle every message that is due, earliest first. Each pass expires a
  // message or spends one of its retries, so the loop ends. A send() from
  // the drop handler sees the timer armed and leaves re-arming to the end.
  const double now = clock_();
  while (!due_.empty() && due_.begin()->first <= now) {
    const MsgKey key = due_.begin()->second;
    due_.erase(due_.begin());
    auto it = pending_.find(key);
    Pending& p = it->second;
    const Endpoint& to = peers_[key.first].ep;

    const bool over_deadline = now - p.first_sent_at >= config_.deadline_s;
    if (over_deadline || p.retries >= config_.max_retries) {
      ++stats_.expired;
      obs_.expired.inc();
      if (obs_.tracer) {
        obs_.tracer.end_span(p.span, obs_.node, "reliable.msg", "expired");
      }
      // Move out before erasing: the drop handler may send (and re-enter).
      serial::Frame wire = std::move(p.wire);
      pending_.erase(it);
      if (on_drop_) on_drop_(to, serial::decode_envelope(wire).inner);
      continue;
    }

    ++p.retries;
    ++stats_.retransmits;
    obs_.retransmits.inc();
    if (obs_.tracer) {
      obs_.tracer.event(obs_.node, "reliable.retx",
                        obs::TraceContext{trace_id_, p.span, lamport_.now()},
                        "seq=" + std::to_string(key.second) +
                            " conn=" + conn_name(inner_.local(), to) +
                            " try=" + std::to_string(p.retries));
    }
    p.rto_s = std::min(p.rto_s * kRtoBackoff, config_.rto_max_s);
    const double wait = jittered(p.rto_s);
    obs_.backoff_wait_s.observe(wait);
    p.due_at = now + wait;
    due_.emplace(p.due_at, key);
    wire_send(key.first, p.wire);
  }
  retry_timer_armed_ = false;
  if (!due_.empty()) arm_retry_timer();
}

void ReliableTransport::on_frame(const Endpoint& from, serial::Frame frame) {
  if (frame.type == serial::FrameType::kBatch) {
    // Unwrap and process each sub-frame as if it arrived alone. Recursion
    // cannot nest: the codec rejects a batch inside a batch.
    std::vector<serial::Frame> subs;
    try {
      subs = serial::decode_batch(frame);
    } catch (const serial::DecodeError&) {
      ++stats_.malformed_dropped;
      return;
    }
    ++stats_.batches_received;
    for (serial::Frame& sub : subs) on_frame(from, std::move(sub));
    return;
  }

  if (on_activity_) on_activity_(from);
  if (frame.type == serial::FrameType::kAck) {
    std::uint64_t id = 0;
    try {
      id = serial::decode_ack(frame);
    } catch (const serial::DecodeError&) {
      ++stats_.malformed_dropped;
      return;
    }
    // Only the peer a message went to can settle it.
    const auto peer = peer_index_.find(from.value);
    if (peer == peer_index_.end()) return;
    const MsgKey key{peer->second, id};
    if (auto it = pending_.find(key); it != pending_.end()) {
      ++stats_.acked;
      obs_.acked.inc();
      obs_.ack_latency_s.observe(clock_() - it->second.first_sent_at);
      if (obs_.tracer) {
        obs_.tracer.end_span(it->second.span, obs_.node, "reliable.msg",
                             "acked retx=" +
                                 std::to_string(it->second.retries));
      }
      due_.erase({it->second.due_at, key});
      pending_.erase(it);
    }
    return;  // duplicate ack for an already-settled message: ignore
  }

  if (frame.type != serial::FrameType::kReliable) {
    ++stats_.passthrough_delivered;
    obs_.passthrough_delivered.inc();
    deliver_up(from, std::move(frame));
    return;
  }

  serial::ReliableEnvelope env;
  try {
    env = serial::decode_envelope(frame);
  } catch (const serial::DecodeError&) {
    // A real-socket peer can hand us anything; drop instead of unwinding
    // through the reactor.
    ++stats_.malformed_dropped;
    return;
  }

  // Clock-merge rule: every received envelope advances the local Lamport
  // clock past the sender's (max(local, remote) + 1), so clock order
  // refines the happens-before relation across peers. Duplicates merge
  // too -- a retransmission still happened-after its send.
  const std::uint64_t merged = lamport_.merge(env.trace.lamport);
  // A transport with no trace of its own joins the run trace of its
  // traffic; this is how workers adopt the controller's per-run id.
  if (env.trace.trace_id != 0 && trace_id_ == 0) {
    trace_id_ = env.trace.trace_id;
  }

  // Always re-ack: the sender retransmits exactly because an earlier ack
  // (or the message itself) was lost.
  const std::uint32_t peer = intern(from);
  wire_send(peer, serial::encode_ack(env.msg_id));
  ++stats_.acks_sent;
  obs_.acks_sent.inc();

  if (!first_sighting(peers_[peer], env.msg_id)) {
    ++stats_.duplicates_suppressed;
    obs_.dedup_hits.inc();
    return;
  }

  ++stats_.delivered;
  obs_.delivered.inc();
  if (obs_.tracer) {
    // The recv half of the transfer pair: same conn/seq spelling as the
    // sender's reliable.msg span, parented to the sending span via the
    // envelope's context.
    obs_.tracer.event(
        obs_.node, "reliable.recv",
        obs::TraceContext{env.trace.trace_id, env.trace.parent_span, merged},
        "seq=" + std::to_string(env.msg_id) +
            " conn=" + conn_name(from, inner_.local()) + " type=" +
            type_tag(env.inner.type));
  }
  deliver_up(from, std::move(env.inner));
}

void ReliableTransport::deliver_up(const Endpoint& from, serial::Frame frame) {
  if (!handler_) return;
  try {
    handler_(from, std::move(frame));
  } catch (const serial::DecodeError&) {
    // The layer above could not decode a frame a peer sent: drop it like
    // a malformed envelope instead of unwinding through the reactor.
    ++stats_.malformed_dropped;
  }
}

}  // namespace cg::net
