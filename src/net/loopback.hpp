// ConGrid -- real-socket backend: the full service stack over TCP loopback.
//
// TcpLoopbackBackend implements the NetworkBackend seam with one
// TcpTransport per node, all bound to ephemeral ports on 127.0.0.1 and
// pumped from a single thread. Services built on it are byte-identical on
// the wire to services on the simulator (same serial framing), but every
// frame crosses a real kernel socket: connect/accept, partial writes,
// coalesced reads -- the failure modes the simulator cannot show.
//
// Faults come from the same FaultInjector the simulator uses (net/fault.hpp),
// applied by a decorator (FaultTransport) between each service and its
// TcpTransport: each outbound frame is dropped, duplicated (the copy sent
// late) or delayed as the injector decides, and a node inside a crash
// window blackholes both directions while its timers keep running -- the
// same observable semantics chaos tests rely on in the sim. Frame
// corruption maps to a drop at the boundary: on a real wire TCP's checksum
// (and our CRC at the decoder) already turns corruption into loss, which is
// exactly how the sim's CRC-reject path behaves.
//
// Timers (retransmits, supervisor probes, batch flushes) run on a
// wall-clock EventQueue owned by the backend; schedule() feeds it.
// run_until pumps: fire due timers, poll every socket, sleep briefly when
// idle.
//
// Every frame decision can be recorded to a pcap-style JSONL wire log
// (bounded ring) for post-mortem when a CI run fails.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/backend.hpp"
#include "net/tcp.hpp"

namespace cg::net {

/// One wire-log record: what happened to one frame at the fault boundary.
struct WireLogRecord {
  double t = 0.0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint8_t type = 0;
  std::uint32_t bytes = 0;
  const char* verdict = "sent";  ///< sent|dropped|delayed|dup|rx_dropped
};

class TcpLoopbackBackend;

/// Transport decorator applying scripted faults on the way to/from a real
/// TcpTransport. Owned by the backend, one per node.
class FaultTransport final : public Transport {
 public:
  FaultTransport(TcpLoopbackBackend& owner, std::uint32_t node,
                 TcpTransport& inner);

  Endpoint local() const override { return inner_.local(); }
  void send(const Endpoint& to, serial::Frame frame) override;
  void set_handler(FrameHandler handler) override;
  std::size_t poll() override { return inner_.poll(); }
  void flush() override { inner_.flush(); }

  TcpTransport& tcp() { return inner_; }

 private:
  friend class TcpLoopbackBackend;

  TcpLoopbackBackend& owner_;
  std::uint32_t node_;
  TcpTransport& inner_;
  FrameHandler handler_;
  bool up_ = true;
};

/// NetworkBackend over real loopback TCP. Single-threaded; wall-clock time
/// starts at ~0 on construction.
class TcpLoopbackBackend final : public NetworkBackend {
 public:
  TcpLoopbackBackend();

  Transport& add_node() override;
  double now() const override { return clock_(); }
  void schedule(double delay_s, std::function<void()> fn) override;
  void run_until(double t_s) override {
    run_until(t_s, [] { return false; });
  }
  bool run_until(double t_s, const std::function<bool()>& done) override;
  void arm_faults(const FaultPlan& plan, std::uint64_t seed) override;
  FaultStats fault_stats() const override {
    return injector_ ? injector_->stats() : FaultStats{};
  }
  void set_up(std::size_t node, bool up) override;
  std::string name() const override { return "tcp"; }

  /// Pump once: fire due timers, poll every socket. Returns true if any
  /// timer fired or frame moved (used to decide whether to sleep).
  bool pump();

  /// Raw TCP transport of a node (stats). Valid after that node's
  /// add_node().
  TcpTransport& tcp(std::size_t node) { return nodes_[node]->tcp(); }

  /// Keep the last `cap` frame decisions for dump_wire_log. 0 disables.
  void set_wire_log_capacity(std::size_t cap) { wire_log_cap_ = cap; }
  const std::deque<WireLogRecord>& wire_log() const { return wire_log_; }
  /// Write the wire log as JSONL (one record per line). Returns false if
  /// the file could not be opened.
  bool dump_wire_log(const std::string& path) const;

 private:
  friend class FaultTransport;

  /// Apply the injector's decision to one outbound frame.
  void route_send(std::uint32_t from, const Endpoint& to, serial::Frame frame);
  /// wire_send after `delay_s`.
  void send_later(std::uint32_t from, const Endpoint& to, serial::Frame frame,
                  double delay_s);
  /// Put a frame on the wire unless its sender is down.
  void wire_send(std::uint32_t from, const Endpoint& to, serial::Frame frame);
  /// Inbound boundary: drops frames addressed to a down node.
  void route_recv(FaultTransport& ft, const Endpoint& from,
                  serial::Frame frame);
  std::uint32_t node_of(const Endpoint& e) const;
  void log_frame(std::uint32_t from, std::uint32_t to, const serial::Frame& f,
                 const char* verdict);

  Clock clock_;
  std::vector<std::unique_ptr<TcpTransport>> tcps_;
  std::vector<std::unique_ptr<FaultTransport>> nodes_;
  std::unordered_map<std::string, std::uint32_t> node_by_endpoint_;
  EventQueue timers_;
  std::unique_ptr<FaultInjector> injector_;

  std::size_t wire_log_cap_ = 0;
  std::deque<WireLogRecord> wire_log_;
};

}  // namespace cg::net
