// ConGrid -- volunteer availability models.
//
// The paper's resource population is "users that are potentially
// permanently connected" but whose machines are only usable "when their
// workstation is idle i.e. when the screen saver turns on" (section 3.7,
// the Condor/SETI@home model), and whose contributions suffer "various
// types of downtime e.g. connection lost, user intervenes, computational
// bandwidth not reached" (section 3.6.2). This module turns those phrases
// into samplable availability traces:
//
//   * AlwaysOnModel     -- dedicated machines (the paper's "20 PCs" line);
//   * PoissonChurnModel -- memoryless connect/disconnect (DSL drops);
//   * DiurnalIdleModel  -- screensaver harvesting with working-hours
//                          pressure and overnight idleness;
//   * intersect()       -- compose models (idle AND connected).
//
// A trace is a sorted list of disjoint [start, end) intervals during which
// the host is usable. Helpers compute the aggregate statistics benches
// report and the "work actually completed" arithmetic used by E3/E8, and
// turn a trace into the crash windows a simulator replays it with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dsp/rng.hpp"
#include "net/fault.hpp"

namespace cg::churn {

/// Half-open availability interval [start, end) in seconds.
struct Interval {
  double start = 0;
  double end = 0;
  double length() const { return end - start; }
  bool operator==(const Interval&) const = default;
};

using Trace = std::vector<Interval>;

/// Generates availability traces. Implementations must be deterministic
/// given the Rng state.
class AvailabilityModel {
 public:
  virtual ~AvailabilityModel() = default;
  /// Sample a trace covering [0, duration_s). Intervals are sorted,
  /// disjoint, and clipped to the duration.
  virtual Trace sample(double duration_s, dsp::Rng& rng) const = 0;
};

/// A dedicated, never-failing host.
class AlwaysOnModel final : public AvailabilityModel {
 public:
  Trace sample(double duration_s, dsp::Rng& rng) const override;
};

/// Alternating exponential up/down periods (connection-level churn).
class PoissonChurnModel final : public AvailabilityModel {
 public:
  PoissonChurnModel(double mean_up_s, double mean_down_s)
      : mean_up_s_(mean_up_s), mean_down_s_(mean_down_s) {}
  Trace sample(double duration_s, dsp::Rng& rng) const override;

 private:
  double mean_up_s_;
  double mean_down_s_;
};

/// Screensaver-idle harvesting with a daily rhythm. Each hour of the day
/// has an idle probability: low during working hours, high overnight; the
/// trace marks whole hours as available, then punches out short
/// user-returns (exponential arrivals) inside available hours.
struct DiurnalOptions {
  double work_start_hour = 9.0;
  double work_end_hour = 18.0;
  double p_idle_work_hours = 0.25;  ///< chance an office-hour is free
  double p_idle_off_hours = 0.90;   ///< chance an off-hour is free
  double mean_interrupt_gap_s = 7200.0;  ///< user-return arrivals
  double mean_interrupt_length_s = 300.0;
};

class DiurnalIdleModel final : public AvailabilityModel {
 public:
  using Options = DiurnalOptions;
  explicit DiurnalIdleModel(Options o = {}) : o_(o) {}
  Trace sample(double duration_s, dsp::Rng& rng) const override;

 private:
  Options o_;
};

// -- trace algebra ----------------------------------------------------------

/// Intersection of two traces: available when both are (idle AND online).
Trace intersect(const Trace& a, const Trace& b);

/// Coalesce touching/overlapping intervals and drop empties; asserts the
/// trace is sorted.
Trace normalise(Trace t);

/// Fraction of [0, duration) covered.
double availability_fraction(const Trace& t, double duration_s);

/// Mean available-interval length (0 for an empty trace).
double mean_session_length(const Trace& t);

/// How much *task* work a host completes in [0, duration): tasks take
/// `task_s` of contiguous availability; an interval ending mid-task loses
/// the partial task unless checkpointing is on, in which case only the
/// work since the last checkpoint (every `checkpoint_s`, 0 = none) is lost
/// and the task resumes in the next interval. Returns completed task count.
std::size_t completed_tasks(const Trace& t, double duration_s, double task_s,
                            double checkpoint_s = 0.0);

/// The gaps of `t` as crash windows for `node`, to replay the trace on a
/// simulator with SimNetwork::arm_faults: down before the first interval,
/// between intervals and after the last. Window times are `t0` plus trace
/// time. A finite `window_s` clips the trace: gaps opening at or after it
/// are dropped, and the node is up for good from t0 + window_s. Without
/// one, the gap after the last interval is a permanent crash. Empty gaps
/// are skipped.
std::vector<net::CrashWindow> crash_windows(
    std::uint32_t node, const Trace& t, double t0 = 0.0,
    double window_s = std::numeric_limits<double>::infinity());

}  // namespace cg::churn
