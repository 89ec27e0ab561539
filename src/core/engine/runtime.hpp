// ConGrid -- the data-flow engine.
//
// Executes one (flattened) task graph on the local peer: units fire when
// every connected input port holds an item, sources fire once per tick()
// (one streaming iteration -- AccumStat's "successive iterations" are
// successive ticks), and Send/Receive proxy units bridge to other peers'
// runtimes through external channels. The engine is deterministic: unit
// RNG streams derive from the runtime seed and the task name, and firing
// order is either a fixed topological worklist (serial) or a wave
// schedule committed in fixed unit-index order (parallel) -- the two are
// bit-identical (DESIGN.md section 4d).
//
// Parallel mode: RuntimeOptions::max_threads > 0 partitions each tick
// into dependency waves -- the set of units whose inputs are all
// satisfied by prior waves -- and dispatches every wave across an
// internal rm::ThreadPool in one batch. Units whose UnitInfo declares
// Concurrency::kSerialOnly (Send/Scatter/Broadcast -- anything with
// external effects) fire on the coordinator thread instead, so external
// sender hooks never need to be thread-safe. Emissions are buffered per
// firing and committed (routed) at the wave barrier in ascending unit
// index, which pins per-port arrival order, RNG streams and checkpoint
// bytes to the serial schedule.
//
// Checkpointing captures the iteration counter, every stateful unit's
// serialised state and all queued in-flight items; restoring into a fresh
// runtime of the same graph resumes exactly (the migration path of paper
// 3.6.2's "check-pointing mechanism may also be employed to migrate
// computation").
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cas/store.hpp"

#include "core/graph/taskgraph.hpp"
#include "core/unit/proxy_units.hpp"
#include "core/unit/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rm/thread_pool.hpp"

namespace cg::core {

struct RuntimeOptions {
  std::uint64_t rng_seed = 1;
  /// When set, units' charge_cpu calls are enforced against this sandbox.
  sandbox::Sandbox* sandbox = nullptr;
  /// Worker threads for wave-parallel ticks; 0 selects the serial firing
  /// loop (no pool is created). Results are bit-identical either way.
  unsigned max_threads = 0;
  /// Memoize pure-unit firings through this content store (borrowed; must
  /// outlive the runtime; nullptr disables). Only units declaring
  /// Concurrency::kPure participate, and only firings that touched neither
  /// ctx.rng() nor ctx.iteration() are stored -- see DESIGN.md section 4f
  /// for the soundness argument. Keys cover unit type, parameters and the
  /// encoded input items, so hits replay across jobs, runs and any peer
  /// sharing the store directory. Replay is bit-identical to recompute, so
  /// serial/parallel equivalence and checkpoint bytes are unaffected.
  cas::ContentStore* memo_store = nullptr;
};

struct RuntimeStats {
  std::uint64_t ticks = 0;
  std::uint64_t firings = 0;
  std::uint64_t items_routed = 0;
  std::uint64_t external_sends = 0;
  std::uint64_t external_deliveries = 0;
  std::uint64_t bytes_sent_external = 0;

  bool operator==(const RuntimeStats&) const = default;
};

class GraphRuntime {
 public:
  /// Flattens, validates (throws std::invalid_argument on a bad graph),
  /// instantiates and configures every unit. Throws std::logic_error when
  /// a unit declares Concurrency::kPure but carries serialisable state.
  GraphRuntime(const TaskGraph& graph, const UnitRegistry& registry,
               RuntimeOptions options = {});

  GraphRuntime(const GraphRuntime&) = delete;
  GraphRuntime& operator=(const GraphRuntime&) = delete;

  /// Install the egress hook for Send/Scatter/Broadcast units (label,
  /// item). Without one, firing any of them throws. The hook is always
  /// invoked on the thread calling tick()/run(), even in wave-parallel
  /// mode.
  void set_external_sender(ChannelOut::Sender sender);

  /// Bind the engine's instruments (wave-width and barrier-stall
  /// histograms, per-tick parallelism gauge) into `registry` under
  /// "<scope>.runtime.*".
  void set_obs(obs::Registry& registry, const std::string& scope = "");

  /// Join a causal trace: every tick becomes a "runtime.tick" span on
  /// `node`, child of ctx.parent_span (the deploy span that started this
  /// job). `tag` is prefixed to every span detail (e.g. "job=home#1") so
  /// ticks of different jobs on one node stay distinguishable. Tracing
  /// never alters firing order, RNG streams or outputs -- span
  /// bookkeeping happens outside the scheduling loops.
  void set_trace(obs::TracerRef tracer, std::string node,
                 const obs::TraceContext& ctx, std::string tag = "");

  /// One streaming iteration: every source fires once, then the graph
  /// runs to quiescence. Uses the wave scheduler when max_threads > 0.
  void tick();

  /// tick() `iterations` times.
  void run(std::uint64_t iterations);

  /// Inject an item arriving on the external channel `label`; it flows out
  /// of the matching Receive unit and the graph runs to quiescence.
  /// Returns false (and drops the item) when no Receive has that label.
  bool deliver(const std::string& label, DataItem item);

  /// Labels of all Receive units (the input pipes a hosting service must
  /// advertise).
  std::vector<std::string> receive_labels() const;

  /// Access a unit by task name (nullptr when absent). Downcast to read
  /// sink results.
  Unit* unit(const std::string& task_name);
  template <typename U>
  U* unit_as(const std::string& task_name) {
    return dynamic_cast<U*>(unit(task_name));
  }

  std::uint64_t iteration() const { return iteration_; }
  const RuntimeStats& stats() const { return stats_; }
  /// Pure-unit firings replayed from / computed into the memo store this
  /// runtime's lifetime. Kept outside RuntimeStats: stats() compares
  /// bit-identical between a cold and a warm run of the same graph, while
  /// these two deliberately differ.
  std::uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t memo_misses() const {
    return memo_misses_.load(std::memory_order_relaxed);
  }
  /// Firing count per task (diagnostics / reports).
  std::uint64_t firings_of(const std::string& task_name) const;

  /// Serialise iteration counter + unit states + queued items.
  serial::Bytes save_checkpoint() const;
  /// Restore from a checkpoint of the *same* graph (matched by task
  /// names); throws std::invalid_argument on mismatch.
  void restore_checkpoint(const serial::Bytes& data);

  /// Clear all unit state and queues; iteration back to zero.
  void reset();

  std::size_t task_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::string name;
    std::unique_ptr<Unit> unit;
    const UnitInfo* info = nullptr;
    dsp::Rng rng{1};
    std::uint64_t firings = 0;
    /// Queued items per input port.
    std::vector<std::deque<DataItem>> pending;
    /// Which input ports have an inbound connection.
    std::vector<bool> connected;
    /// Out-routing: per output port, list of (target node, target port).
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> routes;
    bool is_receive = false;
    /// Concurrency::kSerialOnly -- fires on the coordinator thread.
    bool serial_only = false;
    /// kPure with a memo store attached: firings may be replayed.
    bool memoizable = false;
    /// Pre-encoded memo-key prefix: unit type + ordered parameters.
    serial::Bytes memo_prefix;
  };

  bool ready(const Node& n) const;
  void fire(std::size_t idx);
  /// Run the unit once, consuming queued inputs; returns its emissions
  /// without routing them (the thread-safe part of a parallel wave).
  std::vector<std::pair<std::size_t, DataItem>> invoke(std::size_t idx);
  void route(std::size_t from_idx, std::size_t port, DataItem item);
  void drain();

  /// One wave-scheduled streaming iteration on `pool`.
  void tick_wave(rm::ThreadPool& pool);
  /// Invoke every member of `wave` (pool for parallel-safe units, the
  /// coordinator for serial-only ones), then commit emissions in ascending
  /// unit-index order. `wave` must be sorted ascending. Returns the
  /// coordinator's wait at the barrier, in seconds.
  double dispatch_wave(rm::ThreadPool& pool,
                       const std::vector<std::size_t>& wave);
  /// Drain worklist_ (+ still-ready members of the committed wave) into
  /// the next wave, sorted ascending.
  void collect_next_wave(std::vector<std::size_t>& wave);

  std::vector<Node> nodes_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::unordered_map<std::string, std::size_t> receive_by_label_;
  std::vector<std::size_t> sources_;
  std::deque<std::size_t> worklist_;
  std::vector<bool> queued_;  ///< node already on the worklist

  RuntimeOptions options_;
  std::unique_ptr<rm::ThreadPool> pool_;  ///< owned when max_threads > 0
  ChannelOut::Sender external_sender_;
  std::uint64_t iteration_ = 0;
  RuntimeStats stats_;
  /// Atomics: invoke() runs on pool threads in wave-parallel mode.
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  obs::CounterRef memo_hits_c_;
  obs::CounterRef memo_misses_c_;

  obs::HistogramRef wave_width_h_;     ///< units per dispatched wave
  obs::HistogramRef barrier_stall_h_;  ///< coordinator wait at the barrier
  obs::GaugeRef parallelism_g_;        ///< firings / waves, last tick
  obs::CounterRef waves_c_;            ///< waves dispatched

  obs::TracerRef tracer_;        ///< "runtime.tick" spans (set_trace)
  std::string trace_node_;
  std::string trace_tag_;        ///< detail prefix ("job=... ")
  obs::TraceContext trace_ctx_;  ///< the job's causal identity
};

}  // namespace cg::core
