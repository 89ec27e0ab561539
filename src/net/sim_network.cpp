#include "net/sim_network.hpp"

#include <stdexcept>

#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "serial/reader.hpp"

namespace cg::net {

namespace {
/// Frames up to this size (control traffic) skip the bandwidth term -- they
/// fit in one MTU and their cost is latency-dominated.
constexpr std::size_t kSmallFrameBytes = 1200;
}  // namespace

void SimTransport::send(const Endpoint& to, serial::Frame frame) {
  net_->submit(id_, to, std::move(frame));
}

SimNetwork::SimNetwork(LinkParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

SimNetwork::~SimNetwork() = default;

SimTransport& SimNetwork::add_node() {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back(std::unique_ptr<SimTransport>(new SimTransport(this, id)));
  up_.push_back(true);
  lamports_.emplace_back();
  return *nodes_.back();
}

void SimNetwork::set_up(std::uint32_t id, bool up) {
  if (up_.at(id) != up) {
    (up ? obs_.node_up : obs_.node_down).inc();
    if (obs_.tracer) {
      obs_.tracer.event("sim:" + std::to_string(id),
                        up ? "net.node_up" : "net.node_down",
                        obs::TraceContext{0, 0, lamport_of(id)});
    }
  }
  up_.at(id) = up;
}

void SimNetwork::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                         std::string_view scope) {
  obs_.frames_sent = registry.counter(obs::scoped(scope, "net.frames_sent"));
  obs_.frames_delivered =
      registry.counter(obs::scoped(scope, "net.frames_delivered"));
  obs_.frames_dropped =
      registry.counter(obs::scoped(scope, "net.frames_dropped"));
  obs_.frames_to_down =
      registry.counter(obs::scoped(scope, "net.frames_to_down_node"));
  obs_.frames_duplicated =
      registry.counter(obs::scoped(scope, "net.frames_duplicated"));
  obs_.frames_corrupt_rejected =
      registry.counter(obs::scoped(scope, "net.frames_corrupt_rejected"));
  obs_.bytes_sent = registry.counter(obs::scoped(scope, "net.bytes_sent"));
  obs_.node_up = registry.counter(obs::scoped(scope, "net.node_up"));
  obs_.node_down = registry.counter(obs::scoped(scope, "net.node_down"));
  obs_.link_delay_s =
      registry.histogram(obs::scoped(scope, "net.link_delay_s"));
  obs_.tracer = tracer;
  if (tracer) tracer->set_clock([this] { return now_; });
}

void SimNetwork::schedule(double delay_s, std::function<void()> fn) {
  if (delay_s < 0.0) throw std::invalid_argument("schedule: negative delay");
  queue_.push(now_ + delay_s, std::move(fn));
}

void SimNetwork::arm_faults(const FaultPlan& plan, std::uint64_t seed) {
  if (injector_) throw std::logic_error("arm_faults called twice");
  auto injector = std::make_unique<FaultInjector>(plan, seed);
  injector->schedule_crashes(now_, scheduler(),
                             [this](std::uint32_t node, bool up) {
                               set_up(node, up);
                             });
  injector_ = std::move(injector);
  set_fault_fn([this](std::uint32_t from, std::uint32_t to,
                      const serial::Frame&) {
    return injector_->on_frame(from, to);
  });
}

void SimNetwork::submit(std::uint32_t from, const Endpoint& to,
                        serial::Frame frame) {
  // Parse the "sim:<id>" target.
  if (to.value.rfind("sim:", 0) != 0) {
    throw std::invalid_argument("SimTransport can only address sim: endpoints, got " +
                                to.value);
  }
  const std::uint32_t dst =
      static_cast<std::uint32_t>(std::stoul(to.value.substr(4)));
  if (dst >= nodes_.size()) {
    throw std::out_of_range("sim endpoint refers to unknown node " + to.value);
  }

  ++stats_.messages_sent;
  obs_.frames_sent.inc();
  const std::size_t wire_bytes = serial::kFrameHeaderSize +
                                 frame.payload.size() +
                                 serial::kFrameTrailerSize;
  stats_.bytes_sent += wire_bytes;
  obs_.bytes_sent.inc(wire_bytes);

  // A sender that is itself down cannot transmit.
  if (!up_.at(from)) {
    ++stats_.messages_to_down_node;
    obs_.frames_to_down.inc();
    return;
  }

  if (params_.loss_probability > 0.0 && rng_.chance(params_.loss_probability)) {
    ++stats_.messages_dropped;
    obs_.frames_dropped.inc();
    return;
  }

  // Scripted faults (drop / duplicate / delay / corrupt) layer on after the
  // ambient loss model. While a hook is installed, delivery also verifies
  // the payload CRC captured here, so in-flight corruption is rejected at
  // the receiver instead of handed to the application.
  const bool verify_crc = static_cast<bool>(fault_fn_);
  // The CRC the sender stamped on the wire: captured before any in-flight
  // corruption, so a flipped bit is caught at delivery.
  const std::uint32_t sent_crc =
      verify_crc ? serial::crc32(frame.payload) : 0u;

  FaultAction action;
  if (fault_fn_) {
    action = fault_fn_(from, dst, frame);
    if (action.drop) {
      ++stats_.messages_dropped;
      obs_.frames_dropped.inc();
      return;
    }
    if (action.corrupt && !frame.payload.empty()) {
      // Flip one deterministic-random bit per corrupted frame.
      const std::uint64_t bit = rng_.below(frame.payload.size() * 8);
      frame.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }

  for (int copy = 0; copy < 1 + action.duplicates; ++copy) {
    if (copy > 0) {
      ++stats_.messages_duplicated;
      obs_.frames_duplicated.inc();
    }
    deliver_copy(from, dst, frame, action.extra_delay_s, sent_crc,
                 verify_crc);
  }
}

void SimNetwork::deliver_copy(std::uint32_t from, std::uint32_t dst,
                              serial::Frame frame, double extra_delay_s,
                              std::uint32_t sent_crc, bool verify_crc) {
  const std::size_t wire_bytes = serial::kFrameHeaderSize +
                                 frame.payload.size() +
                                 serial::kFrameTrailerSize;
  double latency = params_.base_latency_s + rng_.uniform() * params_.jitter_s;
  if (wire_bytes > kSmallFrameBytes && params_.bandwidth_Bps > 0.0) {
    latency += static_cast<double>(wire_bytes) / params_.bandwidth_Bps;
  }
  latency += extra_delay_s;
  obs_.link_delay_s.observe(latency);

  queue_.push(now_ + latency,
              [this, from, dst, verify_crc, sent_crc,
               f = std::move(frame)]() mutable {
                if (!up_.at(dst)) {
                  ++stats_.messages_to_down_node;
                  obs_.frames_to_down.inc();
                  return;
                }
                if (verify_crc && serial::crc32(f.payload) != sent_crc) {
                  ++stats_.messages_corrupt_rejected;
                  obs_.frames_corrupt_rejected.inc();
                  if (obs_.tracer) {
                    obs_.tracer.event("sim:" + std::to_string(dst),
                                      "net.corrupt_reject",
                                      obs::TraceContext{0, 0, lamport_of(dst)});
                  }
                  return;
                }
                ++stats_.messages_delivered;
                obs_.frames_delivered.inc();
                // Wire-level clock merge: envelopes carry the sender's
                // Lamport stamp; merging here orders this node's network
                // events after the send even when the layers above never
                // look at the context. Skipped entirely when untraced.
                if (obs_.tracer && f.type == serial::FrameType::kReliable &&
                    f.payload.size() >= 8 + obs::kTraceContextWireSize) {
                  lamports_[dst].merge(serial::peek_envelope_trace(f).lamport);
                } else if (obs_.tracer &&
                           f.type == serial::FrameType::kBatch) {
                  // A batch may carry several envelopes; merge each stamp so
                  // batching never loosens the happens-before order.
                  try {
                    for (const serial::Frame& sub : serial::decode_batch(f)) {
                      if (sub.type == serial::FrameType::kReliable &&
                          sub.payload.size() >=
                              8 + obs::kTraceContextWireSize) {
                        lamports_[dst].merge(
                            serial::peek_envelope_trace(sub).lamport);
                      }
                    }
                  } catch (const serial::DecodeError&) {
                    // Corrupt batch: deliver anyway; the layer above drops it.
                  }
                }
                auto& node = *nodes_.at(dst);
                if (node.handler_) {
                  node.handler_(sim_endpoint(from), std::move(f));
                }
              });
}

bool SimNetwork::step() { return queue_.step(now_); }

std::size_t SimNetwork::run_until(double t) {
  return queue_.run_until(t, now_);
}

std::size_t SimNetwork::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace cg::net
