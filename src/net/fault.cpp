#include "net/fault.hpp"

#include <stdexcept>

namespace cg::net {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {}

void FaultInjector::schedule_crashes(
    double now, const Scheduler& scheduler,
    std::function<void(std::uint32_t, bool)> set_up) {
  for (const CrashWindow& cw : plan_.crashes) {
    if (cw.at_s < now) {
      throw std::invalid_argument("FaultInjector: crash window in the past");
    }
  }
  for (const CrashWindow& cw : plan_.crashes) {
    scheduler(cw.at_s - now, [this, set_up, node = cw.node] {
      set_up(node, false);
      ++stats_.crashes_opened;
    });
    if (cw.duration_s > 0.0) {
      scheduler(cw.at_s + cw.duration_s - now, [this, set_up, node = cw.node] {
        set_up(node, true);
        ++stats_.crashes_closed;
      });
    }
  }
}

FaultAction FaultInjector::on_frame(std::uint32_t from, std::uint32_t to) {
  ++stats_.frames_seen;
  auto it = plan_.per_link.find({from, to});
  const LinkFaults& lf =
      it != plan_.per_link.end() ? it->second : plan_.default_link;

  FaultAction a;
  // Sample every fault class even when an earlier one already decided the
  // frame's fate: the consumed random numbers must not depend on outcomes,
  // or replacing one probability would shift the whole downstream stream
  // and break A/B comparisons between near-identical plans.
  const bool drop = lf.drop > 0.0 && rng_.chance(lf.drop);
  const bool dup = lf.duplicate > 0.0 && rng_.chance(lf.duplicate);
  const bool corrupt = lf.corrupt > 0.0 && rng_.chance(lf.corrupt);
  const bool delay = lf.delay > 0.0 && rng_.chance(lf.delay);
  const double extra =
      lf.delay_min_s + rng_.uniform() * (lf.delay_max_s - lf.delay_min_s);

  if (drop) {
    a.drop = true;
    ++stats_.dropped;
    return a;
  }
  if (dup) {
    a.duplicates = 1;
    a.dup_delay_s = extra;
    ++stats_.duplicated;
  }
  if (corrupt) {
    a.corrupt = true;
    ++stats_.corrupted;
  }
  if (delay) {
    a.extra_delay_s = extra;
    ++stats_.delayed;
  }
  return a;
}

}  // namespace cg::net
