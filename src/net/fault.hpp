// ConGrid -- scripted fault injection, one model for every backend.
//
// Chaos tests need misbehaving networks that misbehave the *same way* every
// run. A declarative FaultPlan -- per-link frame fault probabilities plus
// per-node crash windows -- is replayed by one FaultInjector, owned by the
// backend (SimNetwork::arm_faults, TcpLoopbackBackend::arm_faults). The
// injector decides; the backend applies the decision at its own boundary.
// All randomness comes from the injector's own seeded Rng, independent of
// any network latency/loss stream, so the same (seed, plan) pair makes the
// same decisions for the same frames on either backend.
//
// What it can do to a frame in flight, per link: drop it, deliver an extra
// copy, delay it by a sampled extra latency (reordering it past later
// frames), or flip a payload bit. The simulator gives each copy fresh
// latency and rejects the flipped bit with its CRC check; TCP sends the
// copy late and treats corruption as the loss it becomes on a real wire.
// Crash windows take a node down at a scripted absolute time and
// optionally bring it back up.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"
#include "net/time.hpp"

namespace cg::net {

/// Per-link fault probabilities. All independent per frame; delay is
/// sampled uniformly from [delay_min_s, delay_max_s] when it fires.
struct LinkFaults {
  double drop = 0.0;
  double duplicate = 0.0;   ///< chance of one extra copy
  double corrupt = 0.0;     ///< chance of a single-bit flip in flight
  double delay = 0.0;       ///< chance of extra latency (reordering)
  double delay_min_s = 0.05;
  double delay_max_s = 0.50;
};

/// One scripted outage: `node` goes down at backend time `at_s` and, if
/// `duration_s` is positive, comes back up at `at_s + duration_s` (a
/// crash-and-restart). A non-positive duration is a permanent crash.
struct CrashWindow {
  std::uint32_t node = 0;
  double at_s = 0.0;
  double duration_s = 0.0;
};

/// The whole script: ambient faults for every link, overrides for specific
/// (from, to) pairs, and the crash schedule.
struct FaultPlan {
  LinkFaults default_link;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkFaults> per_link;
  std::vector<CrashWindow> crashes;
};

/// What to do to one frame in flight. A duplicated frame is delivered
/// `1 + duplicates` times.
struct FaultAction {
  bool drop = false;
  int duplicates = 0;
  double extra_delay_s = 0.0;  ///< added to the frame's latency (reordering)
  /// How late a duplicate arrives on a backend that has no per-copy
  /// latency of its own: the injector's delay sample for this frame.
  double dup_delay_s = 0.0;
  bool corrupt = false;        ///< flip payload bits in flight
};

/// What the injector actually did, for assertions and reports.
struct FaultStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t crashes_opened = 0;
  std::uint64_t crashes_closed = 0;

  bool operator==(const FaultStats&) const = default;
};

/// Holds the plan, the RNG and the stats; decides each frame and crash
/// edge. Knows nothing of any backend.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Decide the fate of one frame on the link from -> to.
  FaultAction on_frame(std::uint32_t from, std::uint32_t to);

  /// Schedule every crash window on `scheduler`, whose clock reads `now`:
  /// `set_up(node, false)` at `at_s`, `set_up(node, true)` at the window's
  /// end. Throws std::invalid_argument if a window opens before `now`. The
  /// injector must outlive the scheduled callbacks.
  void schedule_crashes(double now, const Scheduler& scheduler,
                        std::function<void(std::uint32_t, bool)> set_up);

  const FaultStats& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  dsp::Rng rng_;
  FaultStats stats_;
};

}  // namespace cg::net
