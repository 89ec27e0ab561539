#include "churn/availability.hpp"

#include <algorithm>
#include <cmath>

namespace cg::churn {

Trace AlwaysOnModel::sample(double duration_s, dsp::Rng&) const {
  if (duration_s <= 0) return {};
  return {Interval{0.0, duration_s}};
}

Trace PoissonChurnModel::sample(double duration_s, dsp::Rng& rng) const {
  Trace t;
  // Random initial phase: starts up with probability = long-run fraction.
  const double up_fraction = mean_up_s_ / (mean_up_s_ + mean_down_s_);
  bool up = rng.chance(up_fraction);
  double now = 0.0;
  while (now < duration_s) {
    const double len =
        rng.exponential(up ? mean_up_s_ : mean_down_s_);
    const double end = std::min(now + len, duration_s);
    if (up && end > now) t.push_back(Interval{now, end});
    now = end;
    up = !up;
  }
  return normalise(std::move(t));
}

Trace DiurnalIdleModel::sample(double duration_s, dsp::Rng& rng) const {
  // Hour-granular idle blocks.
  Trace idle;
  const double hour = 3600.0;
  for (double start = 0.0; start < duration_s; start += hour) {
    const double hour_of_day = std::fmod(start / hour, 24.0);
    const bool working = hour_of_day >= o_.work_start_hour &&
                         hour_of_day < o_.work_end_hour;
    const double p = working ? o_.p_idle_work_hours : o_.p_idle_off_hours;
    if (rng.chance(p)) {
      idle.push_back(Interval{start, std::min(start + hour, duration_s)});
    }
  }
  idle = normalise(std::move(idle));

  // Punch out short user-returns.
  Trace interrupts;
  double t = rng.exponential(o_.mean_interrupt_gap_s);
  while (t < duration_s) {
    const double len = rng.exponential(o_.mean_interrupt_length_s);
    interrupts.push_back(Interval{t, std::min(t + len, duration_s)});
    t += len + rng.exponential(o_.mean_interrupt_gap_s);
  }
  if (interrupts.empty()) return idle;

  // available = idle minus interrupts = intersect(idle, complement).
  Trace complement;
  double cursor = 0.0;
  for (const auto& iv : normalise(std::move(interrupts))) {
    if (iv.start > cursor) complement.push_back(Interval{cursor, iv.start});
    cursor = std::max(cursor, iv.end);
  }
  if (cursor < duration_s) complement.push_back(Interval{cursor, duration_s});
  return intersect(idle, complement);
}

Trace normalise(Trace t) {
  std::sort(t.begin(), t.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  Trace out;
  for (const auto& iv : t) {
    if (iv.end <= iv.start) continue;
    if (!out.empty() && iv.start <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

Trace intersect(const Trace& a, const Trace& b) {
  Trace out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].start, b[j].start);
    const double hi = std::min(a[i].end, b[j].end);
    if (hi > lo) out.push_back(Interval{lo, hi});
    (a[i].end < b[j].end) ? ++i : ++j;
  }
  return out;
}

double availability_fraction(const Trace& t, double duration_s) {
  if (duration_s <= 0) return 0.0;
  double covered = 0.0;
  for (const auto& iv : t) covered += iv.length();
  return covered / duration_s;
}

double mean_session_length(const Trace& t) {
  if (t.empty()) return 0.0;
  double total = 0.0;
  for (const auto& iv : t) total += iv.length();
  return total / static_cast<double>(t.size());
}

std::size_t completed_tasks(const Trace& t, double duration_s, double task_s,
                            double checkpoint_s) {
  if (task_s <= 0) return 0;
  std::size_t done = 0;
  double progress = 0.0;  // seconds into the current task
  for (const auto& iv : t) {
    if (iv.start >= duration_s) break;
    double remaining = std::min(iv.end, duration_s) - iv.start;
    // Finish the carried-over task first.
    if (progress > 0.0) {
      const double need = task_s - progress;
      if (remaining >= need) {
        ++done;
        remaining -= need;
        progress = 0.0;
      } else {
        progress += remaining;
        remaining = 0.0;
      }
    }
    if (remaining > 0.0) {
      done += static_cast<std::size_t>(remaining / task_s);
      progress = std::fmod(remaining, task_s);
    }
    // Interval ends: partial work survives only up to the last checkpoint.
    if (checkpoint_s > 0.0) {
      progress = std::floor(progress / checkpoint_s) * checkpoint_s;
    } else {
      progress = 0.0;
    }
  }
  return done;
}

std::vector<net::CrashWindow> crash_windows(std::uint32_t node,
                                            const Trace& t, double t0,
                                            double window_s) {
  std::vector<net::CrashWindow> out;
  const auto gap = [&](double from, double to) {
    if (from >= window_s || to <= from) return;
    const double at = t0 + from;
    // Duration from the absolute up edge, so at + duration rounds back to
    // t0 + to rather than drifting by the rounding of to - from.
    out.push_back({node, at, std::isinf(to) ? 0.0 : (t0 + to) - at});
  };
  double up_until = 0.0;
  for (const Interval& iv : t) {
    gap(up_until, std::min(iv.start, window_s));
    up_until = iv.end;
  }
  gap(up_until, window_s);
  return out;
}

}  // namespace cg::churn
