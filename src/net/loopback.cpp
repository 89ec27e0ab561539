#include "net/loopback.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace cg::net {

// ---------------------------------------------------------- FaultTransport

FaultTransport::FaultTransport(TcpLoopbackBackend& owner, std::uint32_t node,
                               TcpTransport& inner)
    : owner_(owner), node_(node), inner_(inner) {
  inner_.set_handler([this](const Endpoint& from, serial::Frame f) {
    owner_.route_recv(*this, from, std::move(f));
  });
}

void FaultTransport::send(const Endpoint& to, serial::Frame frame) {
  owner_.route_send(node_, to, std::move(frame));
}

void FaultTransport::set_handler(FrameHandler handler) {
  handler_ = std::move(handler);
}

// ----------------------------------------------------- TcpLoopbackBackend

TcpLoopbackBackend::TcpLoopbackBackend() : clock_(steady_clock_seconds()) {}

Transport& TcpLoopbackBackend::add_node() {
  auto tcp = std::make_unique<TcpTransport>();
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  node_by_endpoint_[tcp->local().value] = id;
  tcps_.push_back(std::move(tcp));
  nodes_.push_back(std::make_unique<FaultTransport>(*this, id, *tcps_.back()));
  return *nodes_.back();
}

void TcpLoopbackBackend::schedule(double delay_s, std::function<void()> fn) {
  timers_.push(clock_() + std::max(delay_s, 0.0), std::move(fn));
}

bool TcpLoopbackBackend::pump() {
  // Fire timers due now. Timers scheduled by a firing timer for "now" run
  // in the same pump, like the simulator's event loop.
  bool moved = timers_.run_due(clock_()) > 0;
  for (auto& tcp : tcps_) {
    if (tcp->poll_wait(0) > 0) moved = true;
  }
  return moved;
}

bool TcpLoopbackBackend::run_until(double t_s,
                                   const std::function<bool()>& done) {
  while (!done()) {
    if (clock_() >= t_s) break;
    if (!pump()) {
      // Idle: sleep briefly rather than spin. 200 us keeps the compressed
      // test timelines (timers of a few ms) accurate enough.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return done();
}

void TcpLoopbackBackend::arm_faults(const FaultPlan& plan,
                                    std::uint64_t seed) {
  if (injector_) throw std::logic_error("arm_faults called twice");
  auto injector = std::make_unique<FaultInjector>(plan, seed);
  injector->schedule_crashes(now(), scheduler(),
                             [this](std::uint32_t node, bool up) {
                               set_up(node, up);
                             });
  injector_ = std::move(injector);
}

void TcpLoopbackBackend::set_up(std::size_t node, bool up) {
  if (node < nodes_.size()) nodes_[node]->up_ = up;
}

std::uint32_t TcpLoopbackBackend::node_of(const Endpoint& e) const {
  auto it = node_by_endpoint_.find(e.value);
  return it != node_by_endpoint_.end() ? it->second
                                       : static_cast<std::uint32_t>(-1);
}

void TcpLoopbackBackend::log_frame(std::uint32_t from, std::uint32_t to,
                                   const serial::Frame& f,
                                   const char* verdict) {
  if (wire_log_cap_ == 0) return;
  wire_log_.push_back(WireLogRecord{
      clock_(), from, to, static_cast<std::uint8_t>(f.type),
      static_cast<std::uint32_t>(f.payload.size()), verdict});
  while (wire_log_.size() > wire_log_cap_) wire_log_.pop_front();
}

void TcpLoopbackBackend::route_send(std::uint32_t from, const Endpoint& to,
                                    serial::Frame frame) {
  // A node inside a crash window sends nothing, so the injector never sees
  // its frames (as in the sim).
  if (!injector_ || !nodes_[from]->up_) {
    wire_send(from, to, std::move(frame));
    return;
  }
  const std::uint32_t dst = node_of(to);
  const FaultAction a = injector_->on_frame(from, dst);
  // On a real wire, corruption IS loss: the kernel checksum or our frame
  // CRC rejects the bytes and the reliable layer retransmits. Model it as
  // a drop so both backends exercise the same recovery path.
  if (a.drop || a.corrupt) {
    log_frame(from, dst, frame, "dropped");
    return;
  }
  // Extra copies arrive late, like the sim's fresh-latency copies.
  for (int i = 0; i < a.duplicates; ++i) {
    log_frame(from, dst, frame, "dup");
    send_later(from, to, frame, a.dup_delay_s);
  }
  if (a.extra_delay_s > 0.0) {
    log_frame(from, dst, frame, "delayed");
    send_later(from, to, std::move(frame), a.extra_delay_s);
    return;
  }
  wire_send(from, to, std::move(frame));
}

void TcpLoopbackBackend::send_later(std::uint32_t from, const Endpoint& to,
                                    serial::Frame frame, double delay_s) {
  schedule(delay_s, [this, from, to, f = std::move(frame)]() mutable {
    wire_send(from, to, std::move(f));
  });
}

void TcpLoopbackBackend::wire_send(std::uint32_t from, const Endpoint& to,
                                   serial::Frame frame) {
  const bool up = nodes_[from]->up_;
  log_frame(from, node_of(to), frame, up ? "sent" : "dropped");
  if (up) tcps_[from]->send(to, std::move(frame));
}

void TcpLoopbackBackend::route_recv(FaultTransport& ft, const Endpoint& from,
                                    serial::Frame frame) {
  // Inbound boundary: a crashed node hears nothing (frames already in the
  // kernel's buffers still arrive at the socket; we blackhole them here,
  // mirroring SimNetwork's delivery-time up-check).
  if (!ft.up_) {
    log_frame(node_of(from), ft.node_, frame, "rx_dropped");
    return;
  }
  if (ft.handler_) ft.handler_(from, std::move(frame));
}

bool TcpLoopbackBackend::dump_wire_log(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const WireLogRecord& r : wire_log_) {
    out << "{\"t\":" << r.t << ",\"from\":" << r.from << ",\"to\":" << r.to
        << ",\"type\":" << static_cast<int>(r.type)
        << ",\"bytes\":" << r.bytes << ",\"verdict\":\"" << r.verdict
        << "\"}\n";
  }
  return true;
}

}  // namespace cg::net
