// ConGrid -- the unit (tool) abstraction.
//
// Triana programs are networks of units: "There are several hundred units
// (i.e. programs) and networks of units can be created by graphical
// connections" (paper 3.1). A ConGrid unit declares its ports (with
// accepted data types, for connection type checking), is configured from
// the task's key/value parameters, and implements process(): consume one
// DataItem per connected input port, emit items on output ports. Stateful
// units (AccumStat) additionally expose save/restore for checkpointing and
// migration.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types/data_item.hpp"
#include "dsp/rng.hpp"
#include "sandbox/sandbox.hpp"
#include "xml/node.hpp"

namespace cg::core {

/// One input or output port: a name plus the set of data types it accepts
/// (a bitmask of type_bit(DataType)).
struct PortSpec {
  std::string name;
  std::uint32_t accepts = kAnyType;
};

/// The threading contract a unit type declares to the wave scheduler
/// (DESIGN.md section 4d). The wave model never fires one instance twice
/// concurrently, so the distinction is about state and external effects,
/// not reentrancy.
enum class Concurrency {
  /// No mutable per-instance state and no effects outside its emissions:
  /// may fire on any pool thread. save_state() must stay empty -- the
  /// runtime enforces this at graph construction.
  kPure,
  /// Owns per-instance state (accumulators, phase, sink buffers) but
  /// touches nothing outside the instance: may fire on a pool thread
  /// concurrently with *other* units. This is the safe default.
  kStateful,
  /// Reaches outside the graph (external senders, shared host resources):
  /// fired only on the engine's coordinator thread, in fixed unit-index
  /// order, so hooks need not be thread-safe.
  kSerialOnly,
};

/// Static description of a unit type -- the CCA-style component metadata
/// the paper encodes in XML ("The description of a Triana unit is also
/// encoded in XML, and based on the CCA", section 3.2).
struct UnitInfo {
  std::string type_name;   ///< e.g. "Wave", "Gaussian", "FFT"
  std::string package;     ///< e.g. "signalproc"
  std::string description;
  std::vector<PortSpec> inputs;
  std::vector<PortSpec> outputs;
  bool is_source = false;  ///< fires every iteration without inputs
  Concurrency concurrency = Concurrency::kStateful;

  xml::Node to_xml() const;
  static UnitInfo from_xml(const xml::Node& n);
};

/// Most samples a source unit emits per item: 4 Mi doubles (32 MB) hold
/// the paper's 900 s GEO600 chunk at 2,000 S/s (1.8 M samples) and stay
/// well inside the 64 MB frame-payload cap (serial/frame.hpp).
inline constexpr long long kMaxSourceSamples = 1LL << 22;

/// Typed access over a task's string parameters.
class ParamSet {
 public:
  ParamSet() = default;
  explicit ParamSet(std::map<std::string, std::string> kv)
      : kv_(std::move(kv)) {}

  void set(const std::string& key, std::string value) {
    kv_[key] = std::move(value);
  }
  void set_double(const std::string& key, double v);
  void set_int(const std::string& key, long long v);

  bool has(const std::string& key) const { return kv_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  /// get_int for a param that sizes something: outside [lo, hi] it throws
  /// std::invalid_argument("<unit>: <key> must be in [lo, hi]"), or
  /// "... must be >= lo" when hi is unbounded.
  long long get_int_in(std::string_view unit, const std::string& key,
                       long long fallback, long long lo,
                       long long hi = std::numeric_limits<long long>::max())
      const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& raw() const { return kv_; }
  bool operator==(const ParamSet&) const = default;

 private:
  std::map<std::string, std::string> kv_;
};

/// Everything a unit sees during one firing.
class ProcessContext {
 public:
  ProcessContext(std::vector<DataItem> inputs, std::uint64_t iteration,
                 dsp::Rng* rng, sandbox::Sandbox* sb)
      : inputs_(std::move(inputs)), iteration_(iteration), rng_(rng),
        sandbox_(sb) {}

  /// The item consumed on `port` this firing (empty when unconnected).
  const DataItem& input(std::size_t port) const;
  bool has_input(std::size_t port) const;
  std::size_t input_count() const { return inputs_.size(); }

  /// Produce an item on an output port; the runtime routes it.
  void emit(std::size_t port, DataItem item);

  /// Which streaming iteration this firing belongs to (sources increment).
  /// Reading it marks the firing iteration-dependent, which (like rng())
  /// excludes it from cross-run memoization: equal inputs at different
  /// iterations may legitimately produce different outputs.
  std::uint64_t iteration() const {
    iteration_used_ = true;
    return iteration_;
  }

  /// Deterministic per-task random stream. Touching it marks the firing
  /// RNG-dependent: its outputs depend on stream position, and replaying
  /// them without advancing the stream would desynchronise later firings,
  /// so such firings are never memoized.
  dsp::Rng& rng() {
    rng_used_ = true;
    return *rng_;
  }

  /// Did this firing read the RNG / the iteration counter? Consulted by
  /// the runtime after process() to decide whether the firing was a pure
  /// function of its inputs (memoization gate).
  bool rng_used() const { return rng_used_; }
  bool iteration_used() const { return iteration_used_; }

  /// Account estimated CPU cost against the host's sandbox (no-op when the
  /// host runs the unit untrusted-free). Throws SandboxViolation on budget
  /// exhaustion, which fails the job, not the host.
  void charge_cpu(double seconds);

  /// Collected emissions, consumed by the runtime after process().
  std::vector<std::pair<std::size_t, DataItem>>& emissions() {
    return emissions_;
  }

 private:
  std::vector<DataItem> inputs_;
  std::vector<std::pair<std::size_t, DataItem>> emissions_;
  std::uint64_t iteration_;
  dsp::Rng* rng_;
  sandbox::Sandbox* sandbox_;
  mutable bool rng_used_ = false;
  mutable bool iteration_used_ = false;
};

/// Base class of every unit.
class Unit {
 public:
  virtual ~Unit() = default;

  virtual const UnitInfo& info() const = 0;

  /// Called once before the first firing, with the task's parameters.
  virtual void configure(const ParamSet& params) { (void)params; }

  /// One firing: consume inputs, emit outputs.
  virtual void process(ProcessContext& ctx) = 0;

  /// Stateful units serialise their state here (checkpoint/migration);
  /// stateless units return empty.
  virtual serial::Bytes save_state() const { return {}; }
  virtual void restore_state(const serial::Bytes& state) { (void)state; }

  /// Forget accumulated state (fresh run).
  virtual void reset() {}
};

}  // namespace cg::core
