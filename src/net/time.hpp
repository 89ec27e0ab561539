// ConGrid -- time and deferred-execution function types.
//
// Shared by every layer that must run both in simulated time (SimNetwork's
// virtual clock) and in real time (steady_clock + a timer loop): bind Clock
// and Scheduler to the environment once, and the layer above doesn't care
// which world it lives in. EventQueue is the one timer queue behind both
// worlds' schedulers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace cg::net {

/// Seconds on the ambient clock (virtual or wall).
using Clock = std::function<double()>;

/// Run `fn` after `delay_s` seconds on the ambient clock.
using Scheduler = std::function<void(double delay_s, std::function<void()> fn)>;

/// A wall-clock Clock based on steady_clock, starting near zero at first
/// call site construction.
inline Clock steady_clock_seconds() {
  const auto epoch = std::chrono::steady_clock::now();
  return [epoch] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };
}

/// Callbacks ordered by due time, FIFO among equal times -- the order the
/// simulator's determinism rests on. A virtual-time owner advances its own
/// `now` through step()/run_until(); a wall-clock owner just runs what is
/// due with run_due().
class EventQueue {
 public:
  void push(double at, std::function<void()> fn) {
    heap_.push(Event{at, seq_++, std::move(fn)});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pop the earliest event, move `now` to its time and run it. Returns
  /// false when the queue is empty.
  bool step(double& now) {
    if (heap_.empty()) return false;
    // Move the event out before running it: the callback may push more.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now = ev.at;
    ev.fn();
    return true;
  }

  /// step() through every event due at or before `t`, including ones the
  /// callbacks add, then leave `now` at max(now, t). Returns the count.
  std::size_t run_until(double t, double& now) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.top().at <= t) {
      step(now);
      ++n;
    }
    if (now < t) now = t;
    return n;
  }

  /// run_until for a clock that moves by itself.
  std::size_t run_due(double t) {
    double at = t;
    return run_until(t, at);
  }

 private:
  struct Event {
    double at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace cg::net
