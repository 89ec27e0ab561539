// Tests for cg_churn: availability models, trace algebra, the
// completed-tasks arithmetic (with and without checkpointing), and trace
// replay onto a SimNetwork.
#include <gtest/gtest.h>

#include "churn/availability.hpp"
#include "net/sim_network.hpp"

namespace cg::churn {
namespace {

/// Replay `t` onto `net`'s node `node`: its gaps become crash windows.
void replay(net::SimNetwork& net, std::uint32_t node, const Trace& t) {
  net::FaultPlan plan;
  plan.crashes = crash_windows(node, t);
  net.arm_faults(plan, 1);
}

TEST(Trace, NormaliseMergesAndSorts) {
  Trace t = {{5, 7}, {1, 3}, {2, 4}, {9, 9}, {7, 8}};
  Trace n = normalise(t);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], (Interval{1, 4}));
  EXPECT_EQ(n[1], (Interval{5, 8}));  // 5-7 and 7-8 touch
}

TEST(Trace, IntersectBasic) {
  Trace a = {{0, 10}, {20, 30}};
  Trace b = {{5, 25}};
  Trace c = intersect(a, b);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], (Interval{5, 10}));
  EXPECT_EQ(c[1], (Interval{20, 25}));
}

TEST(Trace, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(intersect({{0, 1}}, {{2, 3}}).empty());
  EXPECT_TRUE(intersect({}, {{0, 1}}).empty());
}

TEST(Trace, AvailabilityFraction) {
  Trace t = {{0, 25}, {50, 75}};
  EXPECT_DOUBLE_EQ(availability_fraction(t, 100), 0.5);
  EXPECT_DOUBLE_EQ(availability_fraction({}, 100), 0.0);
  EXPECT_DOUBLE_EQ(availability_fraction(t, 0), 0.0);
}

TEST(Trace, MeanSessionLength) {
  Trace t = {{0, 10}, {20, 50}};
  EXPECT_DOUBLE_EQ(mean_session_length(t), 20.0);
  EXPECT_DOUBLE_EQ(mean_session_length({}), 0.0);
}

TEST(Models, AlwaysOnCoversEverything) {
  dsp::Rng rng(1);
  AlwaysOnModel m;
  auto t = m.sample(1000.0, rng);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(availability_fraction(t, 1000.0), 1.0);
  EXPECT_TRUE(m.sample(0.0, rng).empty());
}

TEST(Models, PoissonChurnFractionConverges) {
  dsp::Rng rng(42);
  // mean up 3h, mean down 1h -> 75% availability.
  PoissonChurnModel m(10800, 3600);
  double frac = 0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    auto t = m.sample(7 * 86400.0, rng);
    frac += availability_fraction(t, 7 * 86400.0);
  }
  EXPECT_NEAR(frac / reps, 0.75, 0.03);
}

TEST(Models, PoissonTraceIsSortedDisjointAndClipped) {
  dsp::Rng rng(7);
  PoissonChurnModel m(1000, 500);
  auto t = m.sample(50000.0, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LT(t[i].start, t[i].end);
    EXPECT_LE(t[i].end, 50000.0);
    if (i) {
      EXPECT_LE(t[i - 1].end, t[i].start);
    }
  }
}

TEST(Models, DiurnalIdleFavoursOffHours) {
  dsp::Rng rng(3);
  DiurnalIdleModel m;  // defaults: 9-18 working, p 0.25 vs 0.90
  const double week = 7 * 86400.0;
  auto t = m.sample(week, rng);

  // Split coverage into working-hour seconds and off-hour seconds.
  double work_avail = 0, off_avail = 0;
  for (const auto& iv : t) {
    double s = iv.start;
    while (s < iv.end) {
      const double next_hour = (std::floor(s / 3600.0) + 1.0) * 3600.0;
      const double e = std::min(next_hour, iv.end);
      const double hod = std::fmod(s / 3600.0, 24.0);
      ((hod >= 9.0 && hod < 18.0) ? work_avail : off_avail) += e - s;
      s = e;
    }
  }
  const double work_total = 7 * 9 * 3600.0;
  const double off_total = week - work_total;
  EXPECT_GT(off_avail / off_total, work_avail / work_total);
  EXPECT_NEAR(off_avail / off_total, 0.90, 0.12);
  EXPECT_NEAR(work_avail / work_total, 0.25, 0.12);
}

TEST(Models, DiurnalInterruptsReduceAvailability) {
  dsp::Rng rng1(5), rng2(5);
  DiurnalIdleModel::Options calm;
  calm.mean_interrupt_gap_s = 1e12;  // effectively none
  DiurnalIdleModel::Options busy;
  busy.mean_interrupt_gap_s = 1800.0;
  busy.mean_interrupt_length_s = 600.0;
  const double week = 7 * 86400.0;
  auto t_calm = DiurnalIdleModel(calm).sample(week, rng1);
  auto t_busy = DiurnalIdleModel(busy).sample(week, rng2);
  EXPECT_GT(availability_fraction(t_calm, week),
            availability_fraction(t_busy, week));
}

TEST(CompletedTasks, ContiguousExecution) {
  Trace t = {{0, 100}};
  EXPECT_EQ(completed_tasks(t, 100, 10), 10u);
  EXPECT_EQ(completed_tasks(t, 100, 30), 3u);
  EXPECT_EQ(completed_tasks(t, 100, 101), 0u);
  EXPECT_EQ(completed_tasks(t, 100, 0), 0u);
}

TEST(CompletedTasks, PartialWorkLostWithoutCheckpoints) {
  // Two 60 s sessions, tasks of 45 s: one task per session, the trailing
  // 15 s of each session is wasted.
  Trace t = {{0, 60}, {100, 160}};
  EXPECT_EQ(completed_tasks(t, 200, 45, 0.0), 2u);
}

TEST(CompletedTasks, CheckpointingSalvagesPartialWork) {
  // Sessions of 40 s, tasks of 60 s: impossible without checkpoints.
  // With 20 s checkpoints: session 1 banks 40 s; session 2 finishes task 1
  // at +20 and banks the remaining 20 s; session 3 finishes task 2 at +40.
  Trace t = {{0, 40}, {50, 90}, {100, 140}};
  EXPECT_EQ(completed_tasks(t, 200, 60, 0.0), 0u);
  EXPECT_EQ(completed_tasks(t, 200, 60, 20.0), 2u);
}

TEST(CompletedTasks, CheckpointGranularityMatters) {
  // 50 s sessions, 80 s tasks: without checkpoints nothing ever finishes.
  Trace t = {{0, 50}, {60, 110}, {120, 170}};
  EXPECT_EQ(completed_tasks(t, 200, 80, 0.0), 0u);
  // Coarse checkpoints (40 s): session 1 saves 40, session 2 finishes at
  // +40 (1 task) and saves 0 of the 10 s remainder... etc.
  EXPECT_GE(completed_tasks(t, 200, 80, 40.0), 1u);
  // Fine checkpoints (10 s) salvage more.
  EXPECT_GE(completed_tasks(t, 200, 80, 10.0),
            completed_tasks(t, 200, 80, 40.0));
}

TEST(CompletedTasks, DurationClipsTrailingInterval) {
  Trace t = {{0, 1000}};
  EXPECT_EQ(completed_tasks(t, 100, 10), 10u);
}

TEST(CrashWindows, GapsShiftByT0AndClipAtTheWindowEnd) {
  const Trace t = {{5, 10}, {20, 30}, {50, 60}};
  // Unclipped: the trailing gap is a permanent crash (duration 0).
  EXPECT_EQ(crash_windows(3, t).size(), 4u);
  EXPECT_EQ(crash_windows(3, t).back().duration_s, 0.0);

  const auto w = crash_windows(3, t, 100.0, 40.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].node, 3u);
  EXPECT_EQ(w[0].at_s, 100.0);  // down until the first interval
  EXPECT_EQ(w[0].duration_s, 5.0);
  EXPECT_EQ(w[1].at_s, 110.0);
  EXPECT_EQ(w[1].duration_s, 10.0);
  EXPECT_EQ(w[2].at_s, 130.0);  // clipped: back up at t0 + window
  EXPECT_EQ(w[2].duration_s, 10.0);

  // Nothing opens at or past the window end; an empty trace is one gap.
  EXPECT_EQ(crash_windows(0, t, 0.0, 10.0).size(), 1u);
  const auto empty = crash_windows(0, {}, 2.0, 8.0);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].at_s, 2.0);
  EXPECT_EQ(empty[0].duration_s, 8.0);
}

TEST(Driver, ReplaysTraceOntoSimNetwork) {
  net::SimNetwork net({}, 1);
  net.add_node();
  replay(net, 0, {{10, 20}, {30, 40}});

  net.run_until(0.0);
  EXPECT_FALSE(net.is_up(0));  // trace starts later
  net.run_until(15.0);
  EXPECT_TRUE(net.is_up(0));
  net.run_until(25.0);
  EXPECT_FALSE(net.is_up(0));
  net.run_until(35.0);
  EXPECT_TRUE(net.is_up(0));
  net.run_until(45.0);
  EXPECT_FALSE(net.is_up(0));
  EXPECT_EQ(net.fault_stats().crashes_opened, 3u);
  EXPECT_EQ(net.fault_stats().crashes_closed, 2u);
}

TEST(Driver, UpAtZeroWhenTraceStartsAtZero) {
  net::SimNetwork net({}, 1);
  net.add_node();
  replay(net, 0, {{0, 5}});
  net.run_until(0.0);
  EXPECT_TRUE(net.is_up(0));
  net.run_until(6.0);
  EXPECT_FALSE(net.is_up(0));
}

TEST(Driver, ZeroLengthIntervalGrantsNoUsableTime) {
  net::SimNetwork net({}, 1);
  net.add_node();
  replay(net, 0, {{5, 5}});
  net.run_until(0.0);
  EXPECT_FALSE(net.is_up(0));
  // Both transitions share t=5; FIFO order applies up then immediately
  // down, so after the timestamp the node is down again.
  net.run_until(5.0);
  EXPECT_FALSE(net.is_up(0));
  EXPECT_EQ(net.fault_stats().crashes_closed, 1u);
  net.run_until(10.0);
  EXPECT_FALSE(net.is_up(0));
}

TEST(Driver, ZeroLengthIntervalAtZero) {
  net::SimNetwork net({}, 1);
  net.add_node();
  replay(net, 0, {{0, 0}});
  EXPECT_TRUE(net.is_up(0));  // up at t=0 per the up-at-zero contract...
  net.run_until(0.0);
  EXPECT_FALSE(net.is_up(0));  // ...but the t=0 end takes it down at once
}

TEST(Driver, MessagesAtIntervalBoundariesRespectHalfOpenSemantics) {
  net::LinkParams p;
  p.base_latency_s = 1.0;
  p.jitter_s = 0.0;
  net::SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
  // Node b (id 1) usable during [5, 9); transitions are scheduled now, so
  // they run before same-timestamp traffic (FIFO tie-break).
  replay(net, 1, {{5, 9}});

  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = {1};
  // Arrives at t=5, exactly at the up transition: delivered (closed start).
  net.schedule(4.0, [&] { a.send(b.local(), f); });
  // Arrives at t=7, inside the interval: delivered.
  net.schedule(6.0, [&] { a.send(b.local(), f); });
  // Arrives at t=9, exactly at the down transition: lost (open end).
  net.schedule(8.0, [&] { a.send(b.local(), f); });
  // Sent at t=9.5 while b is down, arrives at 10.5: lost.
  net.schedule(9.5, [&] { a.send(b.local(), f); });
  net.run_all();

  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.stats().messages_to_down_node, 2u);
}

TEST(Driver, ApplyModelReturnsTheTraceItApplied) {
  net::SimNetwork net({}, 1);
  net.add_node();
  dsp::Rng rng(9);
  PoissonChurnModel m(100, 50);
  const Trace t = m.sample(1000.0, rng);
  replay(net, 0, t);
  EXPECT_FALSE(t.empty());
  // Spot-check one boundary.
  net.run_until(t.front().start + 1e-6);
  EXPECT_TRUE(net.is_up(0));
}

}  // namespace
}  // namespace cg::churn
