// ConGrid -- deterministic discrete-event network simulator.
//
// The paper's Consumer Grid targets thousands of DSL/cable hosts; we cannot
// run those for real, so benches run peers over this simulator instead
// (the substitution table in DESIGN.md). It models, per message:
//
//   delivery_time = now + base_latency + jitter + bytes / bandwidth
//
// with an optional loss probability, and supports node up/down state so the
// churn module can model volunteer availability. Time is virtual (seconds
// as double); the whole simulation is single-threaded and, given a seed,
// bit-for-bit reproducible.
//
// Higher layers may also schedule plain callbacks (schedule()) to model
// computation time on a node -- e.g. "this peer spends 3.2 s filtering a
// chunk" -- so end-to-end experiments account for compute and communication
// in the same clock; clock() and scheduler() hand that clock to them.
// arm_faults() replays a FaultPlan (net/fault.hpp) on top of the link model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dsp/rng.hpp"
#include "net/fault.hpp"
#include "net/time.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace cg::net {

/// Link model parameters. Defaults approximate a 2003-era consumer DSL
/// population: tens of milliseconds of latency, ~1 Mbit/s usable upstream.
struct LinkParams {
  double base_latency_s = 0.040;    ///< fixed one-way latency
  double jitter_s = 0.010;          ///< uniform extra latency in [0, jitter]
  double bandwidth_Bps = 128e3;     ///< serialisation rate, bytes/second
  double loss_probability = 0.0;    ///< independent per-message drop chance
};

/// Aggregate traffic counters, readable at any time.
struct SimStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< loss model + injected drops
  std::uint64_t messages_to_down_node = 0;
  std::uint64_t messages_duplicated = 0;  ///< extra copies from fault hook
  /// Frames whose payload CRC no longer matched at delivery (bit corruption
  /// in flight): rejected like a real NIC discards a bad-FCS frame, never
  /// handed to the application.
  std::uint64_t messages_corrupt_rejected = 0;
  std::uint64_t bytes_sent = 0;

  bool operator==(const SimStats&) const = default;
};

class SimNetwork;

/// Transport endpoint living inside a SimNetwork. Created by
/// SimNetwork::add_node(); owned by the network.
class SimTransport final : public Transport {
 public:
  Endpoint local() const override { return sim_endpoint(id_); }
  void send(const Endpoint& to, serial::Frame frame) override;
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  /// Delivery is driven by the SimNetwork event loop; poll is a no-op.
  std::size_t poll() override { return 0; }

  std::uint32_t id() const { return id_; }

 private:
  friend class SimNetwork;
  SimTransport(SimNetwork* net, std::uint32_t id) : net_(net), id_(id) {}

  SimNetwork* net_;
  std::uint32_t id_;
  FrameHandler handler_;
};

/// The event loop + virtual clock shared by all SimTransports.
class SimNetwork {
 public:
  explicit SimNetwork(LinkParams params = {}, std::uint64_t seed = 1);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Create a new node; the returned transport is owned by the network and
  /// valid for its lifetime.
  SimTransport& add_node();

  std::size_t node_count() const { return nodes_.size(); }
  SimTransport& node(std::uint32_t id) { return *nodes_.at(id); }

  /// Current virtual time in seconds.
  double now() const { return now_; }

  /// now() and schedule() as the ambient time functions of this world.
  Clock clock() {
    return [this] { return now_; };
  }
  Scheduler scheduler() {
    return [this](double d, std::function<void()> fn) {
      schedule(d, std::move(fn));
    };
  }

  /// Mark a node up or down. Frames addressed to a down node are counted
  /// and discarded at delivery time (the sender cannot tell -- as with a
  /// consumer host whose DSL dropped).
  void set_up(std::uint32_t id, bool up);
  bool is_up(std::uint32_t id) const { return up_.at(id); }

  /// Schedule an arbitrary callback at now + delay (delay >= 0). Used to
  /// model computation time and timers.
  void schedule(double delay_s, std::function<void()> fn);

  /// Process the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the virtual clock reaches `t` (events at exactly t are
  /// processed). Returns the number of events processed.
  std::size_t run_until(double t);

  /// Drain the event queue (bounded by max_events as a runaway guard).
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = 50'000'000);

  const SimStats& stats() const { return stats_; }
  const LinkParams& params() const { return params_; }

  /// Per-message fault hook, consulted after the loss model. Each copy of
  /// a duplicated frame gets independently sampled latency, so duplicates
  /// also reorder. While a hook is installed the simulator also models wire
  /// integrity: each frame's payload CRC is captured at send time and
  /// re-verified at delivery, so a corrupted frame is rejected
  /// (messages_corrupt_rejected) instead of trusted. Tests install targeted
  /// hooks ("drop exactly the first ack") directly.
  using FaultFn = std::function<FaultAction(
      std::uint32_t from, std::uint32_t to, const serial::Frame& frame)>;
  void set_fault_fn(FaultFn fn) { fault_fn_ = std::move(fn); }

  /// Replay `plan` with a FaultInjector seeded by `seed`, installed as the
  /// fault hook; crash windows are absolute virtual times, and one that
  /// opens before now() throws std::invalid_argument. A second call throws
  /// std::logic_error.
  void arm_faults(const FaultPlan& plan, std::uint64_t seed);
  /// What the injector did (zeroes when never armed).
  FaultStats fault_stats() const {
    return injector_ ? injector_->stats() : FaultStats{};
  }

  /// Bind metrics/tracing (obs/obs.hpp). Counters land under
  /// "<scope>.net.*" plus a "net.link_delay_s" latency histogram; node
  /// up/down transitions become per-node trace events. When a tracer is
  /// given its clock is pointed at this simulator's virtual time, so every
  /// event in the run is stamped in sim seconds.
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view scope = {});

  /// Per-node Lamport clock as seen by the wire: merged from each
  /// kReliable envelope's trace context at delivery (max(local, remote)+1,
  /// same rule as ReliableTransport), so even a node whose upper layers do
  /// no tracing orders its network-level events against the rest of the
  /// grid. Only maintained while a tracer is bound -- observability must
  /// cost nothing when off.
  std::uint64_t lamport_of(std::uint32_t id) const {
    return id < lamports_.size() ? lamports_[id].now() : 0;
  }

 private:
  friend class SimTransport;

  void submit(std::uint32_t from, const Endpoint& to, serial::Frame frame);
  void deliver_copy(std::uint32_t from, std::uint32_t dst, serial::Frame frame,
                    double extra_delay_s, std::uint32_t sent_crc,
                    bool verify_crc);

  struct Obs {
    obs::CounterRef frames_sent, frames_delivered, frames_dropped,
        frames_to_down, frames_duplicated, frames_corrupt_rejected,
        bytes_sent, node_up, node_down;
    obs::HistogramRef link_delay_s;
    obs::TracerRef tracer;
  };

  LinkParams params_;
  dsp::Rng rng_;
  Obs obs_;
  double now_ = 0.0;
  EventQueue queue_;
  std::vector<std::unique_ptr<SimTransport>> nodes_;
  std::vector<bool> up_;
  std::vector<obs::LamportClock> lamports_;  ///< wire-level clocks, per node
  SimStats stats_;
  FaultFn fault_fn_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace cg::net
