// ConGrid -- network backend seam.
//
// Everything the service stack needs from its environment -- transports for
// peers, a clock, deferred execution, fault scripting, and a way to drive
// the world forward -- behind one interface, so the SAME harness code (a
// chaos test, a parity test, a bench) runs over the discrete-event
// simulator or over real TCP sockets on 127.0.0.1 by swapping the backend.
//
// Semantics both backends honour:
//   * add_node() hands out transports for consecutive node ids 0, 1, 2...;
//   * clock()/scheduler() are the ambient time functions for that world
//     (virtual seconds for sim, wall seconds since construction for TCP),
//     built on now() and schedule();
//   * arm_faults() replays a FaultPlan through one FaultInjector
//     (net/fault.hpp) owned by the backend, so the same (plan, seed) makes
//     the same per-frame decisions on both: drop/duplicate/delay/corrupt
//     per link, plus crash windows at absolute backend times, where a
//     "crashed" node blackholes frames in both directions while its timers
//     keep firing (matching SimNetwork::set_up);
//   * run_until(t) drives I/O and timers until the backend clock passes t.
//
// Determinism differs by construction: the simulator replays bit-for-bit,
// real sockets do not. Parity tests therefore compare *outcomes* (the
// multiset of delivered results, exactly-once ledgers), which the reliable
// layer makes deterministic even when timing is not.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "net/time.hpp"
#include "net/transport.hpp"

namespace cg::net {

/// Abstract world for the service stack. Single-threaded: construct nodes,
/// arm faults, then pump with run_until from one thread.
class NetworkBackend {
 public:
  virtual ~NetworkBackend() = default;

  /// Create the transport for the next node id (0, 1, 2, ...). Owned by
  /// the backend; valid until the backend dies. Call before run_until.
  virtual Transport& add_node() = 0;

  virtual double now() const = 0;

  /// Run `fn` after `delay_s` seconds of backend time.
  virtual void schedule(double delay_s, std::function<void()> fn) = 0;

  /// now() and schedule() as ambient time functions for services living
  /// in this world.
  Clock clock() {
    return [this] { return now(); };
  }
  Scheduler scheduler() {
    return [this](double d, std::function<void()> fn) {
      schedule(d, std::move(fn));
    };
  }

  /// Drive I/O and timers until now() >= t_s.
  virtual void run_until(double t_s) = 0;

  /// Drive until `done()` returns true or now() >= t_s (the budget for
  /// slow CI runners). Returns done()'s final value, so a test can assert
  /// completion instead of racing a timer.
  virtual bool run_until(double t_s, const std::function<bool()>& done) = 0;

  /// Install a fault script, before the traffic it should affect. Crash
  /// windows are absolute backend times; one that opens before now() throws
  /// std::invalid_argument. A second call throws std::logic_error.
  virtual void arm_faults(const FaultPlan& plan, std::uint64_t seed) = 0;

  /// What the fault machinery actually did (zeroes when never armed).
  virtual FaultStats fault_stats() const = 0;

  /// Manually take a node down / bring it back (blackhole semantics).
  virtual void set_up(std::size_t node, bool up) = 0;

  /// "sim" or "tcp" -- for parameterised test names and bench labels.
  virtual std::string name() const = 0;
};

/// The discrete-event world: wraps SimNetwork.
class SimBackend final : public NetworkBackend {
 public:
  explicit SimBackend(LinkParams params = {}, std::uint64_t seed = 1)
      : net_(params, seed) {}

  SimNetwork& net() { return net_; }

  Transport& add_node() override { return net_.add_node(); }
  double now() const override { return net_.now(); }
  void schedule(double delay_s, std::function<void()> fn) override {
    net_.schedule(delay_s, std::move(fn));
  }
  void run_until(double t_s) override { net_.run_until(t_s); }
  bool run_until(double t_s, const std::function<bool()>& done) override;
  void arm_faults(const FaultPlan& plan, std::uint64_t seed) override {
    net_.arm_faults(plan, seed);
  }
  FaultStats fault_stats() const override { return net_.fault_stats(); }
  void set_up(std::size_t node, bool up) override {
    net_.set_up(static_cast<std::uint32_t>(node), up);
  }
  std::string name() const override { return "sim"; }

 private:
  SimNetwork net_;
};

}  // namespace cg::net
