// The system under test, assembled from ConGrid's public API: a home
// TrianaService plus worker services on one NetworkBackend (loopback TCP
// or the DSL simulator), a TrianaController on the home peer, and a unit
// registry holding the paper's app units plus the benchmark's own source
// and sink.
//
// In a traced run every layer is timed from outside, at seams the
// benchmark owns: a Transport decorator between each service and its
// backend node (send, and dispatch of every delivered frame), a wrapped
// Scheduler (timer callbacks), and timed wrappers registered under the
// app unit type names (process). An untraced run builds the same stack
// without any of them.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "cas/store.hpp"
#include "core/service/controller.hpp"
#include "ledger.hpp"
#include "net/backend.hpp"

namespace perfbench {

/// Monotonic wall seconds.
inline double wall_now() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(steady_clock::now().time_since_epoch())
      .count();
}

/// Span sink of a traced run, with the fixed layer rows pre-registered.
struct Tracer {
  SpanLedger ledger;
  std::size_t send = ledger.layer("net.send");
  std::size_t dispatch = ledger.layer("net.dispatch");
  std::size_t timer = ledger.layer("net.timer");
  std::size_t pump = ledger.layer("net.pump");
  std::size_t tick = ledger.layer("core.tick");
  std::size_t controller = ledger.layer("core.controller");
  std::size_t announce = ledger.layer("p2p.announce");
  std::size_t idle = ledger.layer("bench.idle");
  std::size_t harness = ledger.layer("bench.harness");
};

/// Times one span on `tracer`; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, std::size_t layer) : t_(tracer) {
    if (t_) t_->ledger.begin(layer, wall_now());
  }
  ~Span() {
    if (t_) t_->ledger.end(wall_now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Callbacks behind the benchmark's LedgerSource and LedgerSink units.
struct Hooks {
  /// The next generated input item (LedgerSource emits it).
  std::function<cg::core::DataItem()> next_input;
  /// A result reached the home graph's sink with param "tag".
  std::function<void(int tag, const cg::core::DataItem&)> on_result;
};

/// Builtins, galaxy and gw units, plus LedgerSource/LedgerSink bound to
/// `hooks`. With a tracer, every app unit type is re-registered behind a
/// wrapper timing process() under the row "apps.<type>".
cg::core::UnitRegistry make_registry(Hooks& hooks, Tracer* tracer);

struct WorldOptions {
  bool sim = false;               ///< DSL simulator instead of loopback TCP
  cg::net::LinkParams link;       ///< sim only
  std::uint64_t seed = 1;
  std::size_t peers = 3;          ///< services besides home
  bool batch = false;             ///< reliable-layer wire batching
  bool cas_memo = false;          ///< per-peer memory CAS + pure-unit memo
};

/// Stats counters summed over every peer (and node) of a world.
struct Counters {
  std::uint64_t rel_sent = 0, rel_retx = 0, rel_delivered = 0;
  std::uint64_t batches = 0, coalesced = 0;
  std::uint64_t tcp_writev = 0, tcp_reads = 0, tcp_bytes = 0;
  std::uint64_t sim_msgs = 0;
  std::uint64_t queries = 0, query_msgs = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t code_bytes = 0;
  std::uint64_t cas_hits = 0, cas_misses = 0;
  std::uint64_t pipe_payloads = 0;
};

class World {
 public:
  World(const WorldOptions& opt, const cg::core::UnitRegistry& registry,
        Tracer* tracer);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  cg::net::NetworkBackend& backend() { return *be_; }
  cg::core::TrianaService& home() { return *svcs_.front(); }
  /// Worker i (0-based, excluding home).
  cg::core::TrianaService& peer(std::size_t i) { return *svcs_[i + 1]; }
  std::size_t peers() const { return svcs_.size() - 1; }
  std::vector<cg::net::Endpoint> peer_endpoints() const;
  cg::core::TrianaController& controller() { return *ctl_; }

  /// Drive I/O and timers until `done()` or backend time `deadline`;
  /// returns done(). Over TCP this is TcpLoopbackBackend::run_until's loop
  /// (pump; sleep 200 us when idle) with the pump and the sleep timed.
  bool drive(double deadline, const std::function<bool()>& done);

  Counters counters() const;

 private:
  Tracer* tracer_;
  std::unique_ptr<cg::net::NetworkBackend> be_;
  std::vector<std::unique_ptr<cg::net::Transport>> wraps_;
  std::vector<std::unique_ptr<cg::cas::ContentStore>> stores_;
  std::vector<std::unique_ptr<cg::core::TrianaService>> svcs_;
  std::unique_ptr<cg::core::TrianaController> ctl_;
};

}  // namespace perfbench
