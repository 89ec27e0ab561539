// ConGrid -- reliable request/reply layer.
//
// The paper's volunteer DSL/cable peers vanish without notice (3.6.2) and
// their links drop frames; a fire-and-forget control plane silently wedges a
// distributed run on a single lost deploy or ack. ReliableTransport wraps
// any Transport with at-least-once delivery:
//
//   * each outbound frame (bar the types below) rides in a kReliable
//     envelope carrying a message id numbered per destination: the
//     envelopes one transport sends to one peer carry 1, 2, 3, ...
//     (serial::encode_envelope);
//   * the receiver confirms each envelope with a kAck and suppresses
//     duplicate ids per sender in a sliding bitmap window (RFC 4303
//     3.4.3), so retried deploys/cancels stay idempotent -- at-least-once
//     + dedup = effectively-once for control messages;
//   * the sender retransmits unacknowledged messages with exponential
//     backoff plus deterministic jitter until a configurable deadline or
//     retry budget is exhausted, then gives up and (optionally) reports the
//     expiry to a drop handler;
//   * one retransmit timer per transport (RFC 6298 5) serves every unacked
//     message: they wait in a set ordered by due time, an ack just removes
//     its entry, and the timer sleeps until the earliest due instant.
//
// Every frame type gets the treatment except kHeartbeat (liveness probes
// are only meaningful fresh) and the layer's own kReliable/kAck/kBatch
// frames. Acks ride unreliable -- a lost ack simply provokes one more
// retransmission, which provokes a fresh ack.
//
// The layer is transport-agnostic and single-threaded per instance, like
// everything above it: timers run on the ambient Scheduler, so the same
// code is exact over SimNetwork virtual time and best-effort over wall
// clocks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"
#include "net/time.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace cg::net {

/// RTO multiplier per retry.
inline constexpr double kRtoBackoff = 2.0;

/// Retry/dedup tuning. Defaults suit simulated consumer-DSL links (~40 ms
/// one-way): first retry after ~8x RTT, give up after ~20 s.
struct ReliableConfig {
  double rto_initial_s = 0.6;  ///< first retransmission timeout
  double rto_max_s = 5.0;      ///< backoff ceiling
  /// Uniform jitter applied to every (re)transmission timer as a fraction
  /// of the RTO, desynchronising retry storms after an outage.
  double jitter_frac = 0.1;
  double deadline_s = 20.0;    ///< total time before a message expires
  int max_retries = 6;         ///< retransmissions before giving up
  /// Receive window per sender, in ids (rounded up to whole 64-bit words).
  std::size_t dedup_window = 1024;
  std::uint64_t seed = 1;      ///< jitter RNG seed (determinism)

  /// Wire batching (GraphLab-style buffered exchange): when on, small
  /// outbound frames headed for the same peer -- envelopes, acks,
  /// passthrough alike -- are coalesced and sent as one kBatch frame when
  /// a size/count threshold fills or a short flush timer fires. Off by
  /// default: batching reorders the event schedule, so deterministic sim
  /// baselines opt in explicitly.
  bool batch = false;
  std::size_t batch_max_bytes = 16 * 1024;  ///< flush when buffered payload hits this
  std::size_t batch_max_frames = 64;        ///< flush when this many are buffered
  double batch_flush_s = 0.002;             ///< max added latency before a flush
  /// Frames with payloads at least this large skip the coalescer (after
  /// flushing what's buffered, so per-destination order still holds).
  std::size_t batch_bypass_bytes = 4096;
};

/// Counters for the supervisor, benches and chaos tests. Deterministic for
/// a given seed + FaultPlan, so two identical runs must compare equal.
struct ReliableStats {
  std::uint64_t sent = 0;           ///< reliable messages originated
  std::uint64_t retransmits = 0;    ///< extra copies sent
  std::uint64_t acked = 0;          ///< confirmed by the receiver
  std::uint64_t expired = 0;        ///< gave up (deadline/retry budget)
  std::uint64_t delivered = 0;      ///< unique reliable frames passed up
  std::uint64_t duplicates_suppressed = 0;  ///< retransmitted copies eaten
  std::uint64_t acks_sent = 0;
  std::uint64_t passthrough_sent = 0;       ///< frames outside the policy
  std::uint64_t passthrough_delivered = 0;
  std::uint64_t batches_sent = 0;           ///< kBatch frames put on the wire
  std::uint64_t frames_coalesced = 0;       ///< frames that rode in a batch
  std::uint64_t batch_bypassed = 0;         ///< oversized frames sent alone
  std::uint64_t batches_received = 0;       ///< kBatch frames unpacked
  std::uint64_t malformed_dropped = 0;      ///< undecodable frames discarded

  bool operator==(const ReliableStats&) const = default;
};

/// Transport decorator adding at-least-once delivery with receiver-side
/// duplicate suppression. The inner transport, clock and scheduler must
/// outlive this object.
class ReliableTransport final : public Transport {
 public:
  /// Fired when a reliable message exhausts its retries (e.g. the peer is
  /// gone for good). Receives the destination and the original frame.
  using DropHandler =
      std::function<void(const Endpoint& to, const serial::Frame& frame)>;

  /// Fired for EVERY frame this transport receives -- acks, reliable
  /// envelopes, passthrough -- before any processing. Any frame from a
  /// peer is proof the peer is alive, so a failure detector listening
  /// here gets liveness piggybacked on ordinary data-plane traffic for
  /// free (no extra probes on the wire).
  using ActivityListener = std::function<void(const Endpoint& from)>;

  /// Throws std::invalid_argument unless rto_initial_s > 0 and
  /// jitter_frac < 1 (otherwise a retry could fall due at once).
  ReliableTransport(Transport& inner, Clock clock, Scheduler scheduler,
                    ReliableConfig config = {});

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  Endpoint local() const override { return inner_.local(); }
  void send(const Endpoint& to, serial::Frame frame) override;
  void set_handler(FrameHandler handler) override {
    handler_ = std::move(handler);
  }
  std::size_t poll() override { return inner_.poll(); }

  /// Flush every per-destination batch buffer, then the inner transport.
  /// Hot paths call this after a burst so coalesced frames do not sit out
  /// the flush timer.
  void flush() override;

  void set_drop_handler(DropHandler h) { on_drop_ = std::move(h); }
  void set_activity_listener(ActivityListener l) {
    on_activity_ = std::move(l);
  }

  /// Bind metrics/tracing: "<scope>.reliable.*" counters, ack-latency and
  /// backoff-wait histograms, plus a trace span per reliable message
  /// (begin at first send, end at ack or expiry). `scope` doubles as the
  /// tracer's node id -- pass the peer id.
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view scope = {});

  /// Join causal trace `trace_id`: every envelope this transport originates
  /// is stamped with it (plus the sending span and the local Lamport clock)
  /// so receivers can attach their work to the same per-run trace. A
  /// transport with no explicit trace adopts the id of the first traced
  /// envelope it receives -- workers join the controller's run trace
  /// without any extra signalling. No-op (zeros on the wire) when the obs
  /// layer is compiled out; the envelope bytes stay, so frame sizes and
  /// simulated latencies never change with tracing.
  void set_trace(std::uint64_t trace_id);
  std::uint64_t trace_id() const { return trace_id_; }
  /// Local Lamport clock: ticked per originated envelope, merged on every
  /// envelope received. Exposed so app layers (service, discovery) can
  /// stamp their own messages consistently.
  obs::LamportClock& lamport() { return lamport_; }

  const ReliableStats& stats() const { return stats_; }
  const ReliableConfig& config() const { return config_; }
  /// Messages sent but neither acked nor expired yet.
  std::size_t in_flight() const { return pending_.size(); }
  Transport& inner() { return inner_; }

 private:
  /// Per-destination coalescing buffer (active only with config_.batch).
  struct BatchBuf {
    std::vector<serial::Frame> frames;
    std::size_t bytes = 0;        ///< batched-wire cost accumulated so far
    bool flush_scheduled = false; ///< a flush timer is in flight
  };

  /// Everything kept per remote endpoint, interned on first contact.
  struct Peer {
    Endpoint ep;
    std::uint64_t next_seq = 1;  ///< id of the next envelope sent to it
    /// Receive window: the highest id seen from this peer, and one bit per
    /// id in (top - window, top], at bit id % window; a set bit means the
    /// id was delivered. Allocated on the first envelope received.
    std::uint64_t top = 0;
    std::vector<std::uint64_t> seen;
    BatchBuf batch;
  };

  /// (peer index, sequence number) of one reliable message.
  using MsgKey = std::pair<std::uint32_t, std::uint64_t>;

  struct Pending {
    /// The kReliable envelope, resent verbatim. The only copy of the
    /// payload: the drop handler gets the caller's frame back by unwrapping
    /// it.
    serial::Frame wire;
    double first_sent_at = 0.0;
    double due_at = 0.0;  ///< next retransmit or expiry check
    double rto_s = 0.0;
    int retries = 0;
    std::uint64_t span = 0;  ///< open trace span (0 when untraced)
  };

  struct Obs {
    obs::CounterRef sent, retransmits, acked, expired, delivered, dedup_hits,
        acks_sent, passthrough_sent, passthrough_delivered, batches_sent,
        frames_coalesced;
    obs::HistogramRef ack_latency_s, backoff_wait_s;
    obs::TracerRef tracer;
    std::string node;  ///< tracer scope
  };

  /// Index of `ep` in peers_, interning it on first sight.
  std::uint32_t intern(const Endpoint& ep);
  /// Marks `id` from `peer` seen; false when it is a duplicate inside the
  /// window. Ids below the window count as new.
  bool first_sighting(Peer& peer, std::uint64_t id);
  void on_frame(const Endpoint& from, serial::Frame frame);
  /// Hands `frame` to the handler; a DecodeError it throws is counted in
  /// malformed_dropped.
  void deliver_up(const Endpoint& from, serial::Frame frame);
  void arm_retry_timer();
  void on_retry_timer();
  double jittered(double delay_s);
  /// Every outbound frame (original, retransmit, ack, passthrough) goes
  /// through here; it either forwards directly or coalesces into kBatch.
  void wire_send(std::uint32_t peer, serial::Frame frame);
  void flush_dest(std::uint32_t peer);
  void on_batch_timer(std::uint32_t peer);

  Transport& inner_;
  Clock clock_;
  Scheduler scheduler_;
  ReliableConfig config_;
  dsp::Rng rng_;
  Obs obs_;
  FrameHandler handler_;
  DropHandler on_drop_;
  ActivityListener on_activity_;
  std::map<MsgKey, Pending> pending_;
  /// (due_at, key) of every pending message, earliest first.
  std::set<std::pair<double, MsgKey>> due_;
  /// True while the one retry timer is queued or running. It is armed only
  /// when none is, at min(earliest due, now + min_first_rto_): no later
  /// send() can fall due before that, so one timer always suffices and
  /// none ever goes stale.
  bool retry_timer_armed_ = false;
  double min_first_rto_ = 0.0;  ///< shortest possible jittered first RTO
  std::unordered_map<std::string, std::uint32_t> peer_index_;  // by value
  /// Indexed by peer number. A deque, so a Peer& stays valid while a
  /// handler re-enters send() and interns another peer.
  std::deque<Peer> peers_;
  std::size_t window_words_ = 0;  ///< 64-bit words per receive window
  std::uint64_t trace_id_ = 0;
  obs::LamportClock lamport_;
  ReliableStats stats_;
};

}  // namespace cg::net
