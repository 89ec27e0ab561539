// ConGrid -- transport abstraction.
//
// Everything above this layer (pipes, discovery, the service/controller
// protocol) is transport-agnostic: the same peer code runs over the
// discrete-event simulator (for 1000s of peers in benches), the in-process
// hub (for multi-threaded tests) and real TCP sockets (for the
// p2p_discovery example). This is ConGrid's version of the paper's
// "middleware independence" design constraint (section 3.3).
//
// The model is polled message passing: send() enqueues a frame towards an
// endpoint; poll() drives progress and invokes the registered handler for
// each delivered frame. Transports never call the handler from inside
// send(), so handlers may freely send().
#pragma once

#include <functional>

#include "net/endpoint.hpp"
#include "serial/frame.hpp"

namespace cg::net {

/// Callback invoked once per delivered frame.
using FrameHandler =
    std::function<void(const Endpoint& from, serial::Frame frame)>;

/// Abstract polled transport. Implementations: SimTransport (sim_network.hpp)
/// and TcpTransport (tcp.hpp).
class Transport {
 public:
  virtual ~Transport() = default;

  /// The address other nodes use to reach this transport.
  virtual Endpoint local() const = 0;

  /// Queue a frame for delivery. Never blocks on the receiver. Delivery is
  /// best-effort: simulated links may drop, TCP peers may be gone.
  virtual void send(const Endpoint& to, serial::Frame frame) = 0;

  /// Register the delivery callback (replaces any previous handler).
  virtual void set_handler(FrameHandler handler) = 0;

  /// Deliver pending inbound frames to the handler. Returns the number of
  /// frames delivered. For the simulated transport this is a no-op (the
  /// SimNetwork event loop delivers); for tcp the owner must poll.
  virtual std::size_t poll() = 0;

  /// Push any coalesced-but-unsent output towards the wire now instead of
  /// waiting for the next size threshold or flush tick. Latency hint only;
  /// default is a no-op. Layered transports (ReliableTransport batching)
  /// flush their own buffers and then their inner transport's.
  virtual void flush() {}
};

}  // namespace cg::net
