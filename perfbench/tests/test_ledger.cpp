// Tests for the end-to-end benchmark's bookkeeping helpers.
#include <gtest/gtest.h>

#include <numeric>

#include "ledger.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NearestRankQuantile) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(quantile(one_to(10), 0.5), 5.0);
  EXPECT_EQ(quantile(one_to(10), 1.0), 10.0);
  EXPECT_EQ(quantile(one_to(10), 0.0), 1.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  // 1,000 samples support p99 exactly: ranks 991..1000 lie beyond it.
  const Percentile p = tail_percentile(one_to(1000));
  EXPECT_EQ(p.n, 1000u);
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.value, 990.0);

  // 150 samples: the highest supported quantile is 140/150 (p93.3).
  const Percentile q = tail_percentile(one_to(150));
  EXPECT_EQ(q.n, 150u);
  EXPECT_DOUBLE_EQ(q.q, 140.0 / 150.0);
  EXPECT_EQ(q.value, 140.0);
}

TEST(Percentile, FewSamplesFallBackToTheMedian) {
  const Percentile p = tail_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(p.q, 0.5);
  EXPECT_EQ(p.value, 6.0);
  const Percentile one = tail_percentile({7.0});
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(tail_percentile({}).n, 0u);
}

TEST(Reservoir, KeepsEverythingBelowCapacity) {
  Reservoir<double> r(5, 1);
  for (double v : {3.0, 1.0, 2.0}) r.add(v);
  EXPECT_EQ(r.samples(), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(r.seen(), 3u);
}

TEST(Reservoir, UniformBoundedAndReplayable) {
  Reservoir<double> a(1000, 42), b(1000, 42);
  for (int i = 0; i < 100000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a.samples().size(), 1000u);
  EXPECT_EQ(a.seen(), 100000u);
  EXPECT_EQ(a.samples(), b.samples());
  // A uniform sample of 0..99999 has its median near 50,000.
  EXPECT_NEAR(quantile(a.samples(), 0.5), 50000.0, 5000.0);
}

TEST(SlicedPercentile, MedianOverGroupsIgnoresABurst) {
  // Four 1 s slices of 20 samples each; slice 2 is a contention burst.
  std::vector<TimedSample> s;
  for (int sl = 0; sl < 4; ++sl) {
    for (int i = 0; i < 20; ++i) {
      const double v = (sl == 2 ? 100.0 : 10.0) + i;
      s.push_back(TimedSample{sl + 0.01 * i, v});
    }
  }
  const std::vector<double> bounds{0.0, 1.0, 2.0, 3.0, 4.0};
  // Groups of >= 20 samples are single slices with medians 19, 19, 109,
  // 19: the burst does not move the result.
  const Percentile p = sliced_percentile(s, bounds, 0.5, 20);
  EXPECT_EQ(p.value, 19.0);
  EXPECT_EQ(p.n, 80u);
  // Groups of >= 40 pair the slices up: {0,1} and {2,3}, medians 19 and
  // 29; the lower middle is reported.
  EXPECT_EQ(sliced_percentile(s, bounds, 0.5, 40).value, 19.0);
  // Too few samples for two groups: the whole run's median (the 40th of
  // 80 values, 10..29 three times over and 100..119).
  const Percentile whole = sliced_percentile(s, bounds, 0.5, 50);
  EXPECT_EQ(whole.value, 23.0);
  EXPECT_EQ(whole.n, 80u);
}

TEST(SliceRates, MedianOverSlicesDropsThePartialTail) {
  // Three 1 s slices at 100, 120 and 80 items/s, 0.5 s of CPU each, then a
  // 0.2 s partial slice that is dropped.
  const std::vector<SliceMark> m{
      {0.0, 0.0, 0}, {1.0, 0.5, 100}, {2.0, 1.0, 220}, {3.0, 1.5, 300},
      {3.2, 1.6, 301}};
  const SliceRates r = slice_rates(m);
  EXPECT_DOUBLE_EQ(r.items_per_s, 100.0);
  EXPECT_DOUBLE_EQ(r.cpu_s_per_item, 0.5 / 100.0);
}

TEST(SliceRates, ASliceWithoutResultsLowersTheRate) {
  // Four 1 s slices, 0.5 s of CPU each; the pipeline stalls in slices 2
  // and 4. Skipping the empty slices would report 100 items/s at 5 ms of
  // CPU per item, as if nothing had happened.
  const std::vector<SliceMark> m{
      {0.0, 0.0, 0}, {1.0, 0.5, 100}, {2.0, 1.0, 100}, {3.0, 1.5, 200},
      {4.0, 2.0, 200}};
  const SliceRates r = slice_rates(m);
  EXPECT_LT(r.items_per_s, 100.0);
  EXPECT_DOUBLE_EQ(r.items_per_s, 0.0);  // lower middle of {0, 0, 100, 100}
  // Each stall's CPU is charged to a slice that delivered: the stall in
  // slice 2 to slice 3, the trailing one to slice 3 as well.
  EXPECT_DOUBLE_EQ(r.cpu_s_per_item, 0.5 / 100.0);  // slice 1
  const SliceRates late = slice_rates(
      {{0.0, 0.0, 0}, {1.0, 0.5, 0}, {2.0, 1.0, 100}, {3.0, 1.5, 200}});
  EXPECT_DOUBLE_EQ(late.items_per_s, 100.0);
  EXPECT_DOUBLE_EQ(late.cpu_s_per_item, 0.5 / 100.0);  // lower of 5, 10 ms
  const SliceRates stalled = slice_rates(
      {{0.0, 0.0, 0}, {1.0, 0.5, 0}, {2.0, 1.0, 100}, {3.0, 1.5, 100}});
  EXPECT_DOUBLE_EQ(stalled.items_per_s, 0.0);
  EXPECT_DOUBLE_EQ(stalled.cpu_s_per_item, 1.5 / 100.0);
}

TEST(SliceRates, ShortRunIsOneSlice) {
  const SliceRates r = slice_rates({{0.0, 0.0, 0}, {0.4, 0.2, 40}});
  EXPECT_DOUBLE_EQ(r.items_per_s, 100.0);
  EXPECT_DOUBLE_EQ(r.cpu_s_per_item, 0.2 / 40.0);
}

TEST(LatencyMatcher, MatchesOutOfOrderResultsBySequence) {
  // Three items to a farm; results come back 2, 0, 1.
  LatencyMatcher m;
  m.emit(0, 10.0, /*key=*/100);
  m.emit(1, 11.0, 101);
  m.emit(2, 12.0, 102);
  auto r2 = m.deliver(15.0, [](std::size_t k) { return k == 102; });
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->seq, 2u);
  EXPECT_DOUBLE_EQ(r2->latency, 3.0);
  auto r0 = m.deliver(16.0, [](std::size_t k) { return k == 100; });
  ASSERT_TRUE(r0);
  EXPECT_EQ(r0->seq, 0u);
  EXPECT_DOUBLE_EQ(r0->latency, 6.0);
  EXPECT_EQ(m.outstanding(), 1u);
  auto r1 = m.deliver(17.0, [](std::size_t k) { return k == 101; });
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->seq, 1u);
  EXPECT_EQ(m.outstanding(), 0u);
}

TEST(LatencyMatcher, EqualResultsClaimTheOldestItem) {
  // Inputs cycle, so two outstanding items may expect the same result.
  LatencyMatcher m;
  m.emit(0, 1.0, 7);
  m.emit(1, 2.0, 8);
  m.emit(2, 3.0, 7);
  auto a = m.deliver(4.0, [](std::size_t k) { return k == 7; });
  auto b = m.deliver(5.0, [](std::size_t k) { return k == 7; });
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->seq, 0u);
  EXPECT_EQ(b->seq, 2u);
}

TEST(LatencyMatcher, WrongResultMatchesNothing) {
  LatencyMatcher m;
  m.emit(0, 1.0, 1);
  EXPECT_FALSE(m.deliver(2.0, [](std::size_t k) { return k == 2; }));
  EXPECT_EQ(m.outstanding(), 1u);
}

TEST(OpenLoop, DueTimesIgnoreHowFastTheSystemIs) {
  OpenLoopSchedule s(/*start=*/100.0, /*rate_per_s=*/4.0);
  EXPECT_TRUE(s.due(100.0));
  EXPECT_DOUBLE_EQ(s.issue(), 100.0);
  EXPECT_FALSE(s.due(100.2));
  // The generator stalls until 101.0: items 1..4 are all due by then and
  // each keeps its own due time, so latency measured from it counts the
  // wait the stall imposed, and 101.0 - due is each item's generator lag.
  std::vector<double> dues;
  while (s.due(101.0)) dues.push_back(s.issue());
  EXPECT_EQ(dues, (std::vector<double>{100.25, 100.5, 100.75, 101.0}));
  EXPECT_EQ(s.issued(), 5u);
  EXPECT_FALSE(s.due(101.0));
  EXPECT_DOUBLE_EQ(s.due_time(5), 101.25);
}

TEST(SpanLedger, NestedSelfTimeIsSubtracted) {
  // dispatch [0, 10] contains unit [1, 4] and send [5, 6]; the unit itself
  // contains a nested send [2, 3].
  SpanLedger l;
  const auto dispatch = l.layer("net.dispatch");
  const auto unit = l.layer("apps.Scaler");
  const auto send = l.layer("net.send");
  l.begin(dispatch, 0.0);
  l.begin(unit, 1.0);
  l.begin(send, 2.0);
  l.end(3.0);
  l.end(4.0);
  l.begin(send, 5.0);
  l.end(6.0);
  l.end(10.0);
  EXPECT_EQ(l.depth(), 0u);
  EXPECT_DOUBLE_EQ(l.rows()[dispatch].self_s, 10.0 - 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(l.rows()[unit].self_s, 2.0);
  EXPECT_DOUBLE_EQ(l.rows()[send].self_s, 2.0);
  EXPECT_EQ(l.rows()[send].count, 2u);
  // Self times partition the outermost span.
  EXPECT_DOUBLE_EQ(l.self_total(), 10.0);
  EXPECT_EQ(l.layer("net.send"), send);
  l.clear_times();
  EXPECT_EQ(l.self_total(), 0.0);
  EXPECT_EQ(l.rows().size(), 3u);
}
