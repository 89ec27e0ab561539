// Pure bookkeeping helpers of the end-to-end benchmark: percentiles with
// their sample-count rule, sequence-number latency matching for results
// that return out of order, the open-loop arrival schedule, and self time
// of nested spans. No ConGrid types here, so the rules are unit-testable
// on their own (perfbench/tests/test_ledger.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// A latency percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  double q = 0.0;       ///< the quantile actually reported
  std::size_t n = 0;    ///< samples it was taken from
};

/// The highest quantile <= `want` that still leaves at least `min_beyond`
/// samples above its rank; never below the median. With n >= 1,000 and the
/// defaults this is p99; with 150 samples it is p93.
Percentile tail_percentile(std::vector<double> v, double want = 0.99,
                           std::size_t min_beyond = 10);

/// A uniform sample of at most `capacity` values out of a stream (Vitter's
/// algorithm R with a seeded generator, so a run replays exactly). Keeps the
/// harness's memory flat however many items a run delivers, so peak RSS
/// measures the system, not the sample store.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), state_(seed) {}

  void add(T v) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(v);
      return;
    }
    const std::uint64_t j = next() % seen_;
    if (j < capacity_) kept_[j] = v;
  }
  const std::vector<T>& samples() const { return kept_; }
  /// Values offered so far (the population the sample stands for).
  std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<T> kept_;
};

/// A measurement taken at wall time `at`.
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// A percentile that a burst of outside contention cannot dominate: the
/// run is cut at `bounds` (ascending slice edges), consecutive slices are
/// merged until each group holds at least `min_samples`, tail_percentile(q)
/// is taken per group, and the median over groups is reported (a short
/// trailing group is dropped). With fewer than two groups it is
/// tail_percentile(q) of the whole run. `n` is the total sample count.
Percentile sliced_percentile(std::vector<TimedSample> samples,
                             const std::vector<double>& bounds, double q,
                             std::size_t min_samples);

/// State of a run at a slice edge.
struct SliceMark {
  double wall = 0.0;            ///< wall seconds
  double cpu = 0.0;             ///< process CPU seconds
  std::uint64_t delivered = 0;  ///< correct results so far
};

/// Throughput and CPU per item over a run cut into slices at `marks`.
struct SliceRates {
  double items_per_s = 0.0;     ///< median over slices
  double cpu_s_per_item = 0.0;  ///< median over slices that delivered
};

/// Slices shorter than `min_slice_s` (the run's partial last slice) are
/// dropped. A slice that delivered nothing counts as rate 0, and the CPU it
/// burnt is charged to the next slice that delivered (at the end of the
/// run, to the last one that did), so a stall lowers the rate and raises
/// CPU per item instead of vanishing from both. With no full slice the
/// whole run is one slice.
SliceRates slice_rates(const std::vector<SliceMark>& marks,
                       double min_slice_s = 0.5);

/// Matches delivered results to emitted items. Farm results return out of
/// order and carry no sequence number, so each emitted item registers the
/// key of its expected result (an index into the oracle's reference table)
/// and a delivered result claims the OLDEST outstanding item whose expected
/// result it equals.
class LatencyMatcher {
 public:
  struct Match {
    std::uint64_t seq = 0;
    double latency = 0.0;  ///< delivered_at - due_at
  };

  /// Record item `seq`, due at `due_at` (its tick, or its scheduled time in
  /// an open loop), whose correct result is reference `key`.
  void emit(std::uint64_t seq, double due_at, std::size_t key);

  /// Claim the oldest outstanding item for which `is_result_of(key)` holds.
  /// nullopt when none does: the result is wrong (or a duplicate).
  template <typename Pred>
  std::optional<Match> deliver(double delivered_at, Pred is_result_of) {
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      if (!is_result_of(it->key)) continue;
      Match m{it->seq, delivered_at - it->due_at};
      open_.erase(it);
      return m;
    }
    return std::nullopt;
  }

  std::size_t outstanding() const { return open_.size(); }

 private:
  struct Open {
    std::uint64_t seq;
    double due_at;
    std::size_t key;
  };
  std::deque<Open> open_;
};

/// Fixed-rate arrivals for an open loop: item k is due at start + k / rate,
/// whether or not the system kept up, so a stall shows as generator lag
/// and as latency of every item behind it instead of thinning the load.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {}

  double due_time(std::uint64_t k) const {
    return start_ + static_cast<double>(k) / rate_;
  }
  /// True when the next item is due at `now`.
  bool due(double now) const { return now >= due_time(issued_); }
  /// Issue the next item; returns its due time.
  double issue() { return due_time(issued_++); }
  std::uint64_t issued() const { return issued_; }

 private:
  double start_;
  double rate_;
  std::uint64_t issued_ = 0;
};

/// Self time of nested spans. A span's self time is its duration minus the
/// durations of the spans directly nested in it, so a dispatch that runs a
/// unit and sends a frame is charged only for what is left over.
class SpanLedger {
 public:
  struct Row {
    std::string name;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };

  /// Index of the row called `name`, created on first use.
  std::size_t layer(const std::string& name);

  void begin(std::size_t layer, double t);
  /// Close the innermost open span.
  void end(double t);

  std::size_t depth() const { return stack_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  /// Sum of self time over all rows.
  double self_total() const;
  void clear_times();

 private:
  struct Open {
    std::size_t layer;
    double start;
    double child_s;
  };
  std::vector<Row> rows_;
  std::vector<Open> stack_;
};

}  // namespace perfbench
