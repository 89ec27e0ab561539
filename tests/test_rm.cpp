// Tests for cg_rm: the thread pool and the simulated batch queue's
// slot/queueing behaviour in virtual time.
#include <gtest/gtest.h>

#include <atomic>

#include "net/sim_network.hpp"
#include "rm/batch_queue.hpp"
#include "rm/thread_pool.hpp"

namespace cg::rm {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelSpeedupIsObservable) {
  // Not a timing assertion -- just checks that tasks really run on
  // multiple threads by observing distinct thread ids.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> barrier{0};
  for (int i = 0; i < 4; ++i) {
    pool.post([&] {
      ++barrier;
      while (barrier.load() < 4) std::this_thread::yield();
      std::lock_guard lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitBatchRunsAllAndWaitBlocksUntilDone) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&] { ++count; });
  }
  ThreadPool::Batch batch = pool.submit_batch(std::move(tasks));
  batch.wait();
  EXPECT_EQ(count.load(), 64);  // wait() means *completed*, not dequeued
  EXPECT_TRUE(batch.done());
}

TEST(ThreadPool, EmptyBatchIsImmediatelyDone) {
  ThreadPool pool(2);
  ThreadPool::Batch batch = pool.submit_batch({});
  EXPECT_TRUE(batch.done());
  batch.wait();  // must not hang
  ThreadPool::Batch unused;
  EXPECT_TRUE(unused.done());
  unused.wait();
}

TEST(ThreadPool, BatchesInterleaveWithPosts) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back([&] { ++count; });
  auto b1 = pool.submit_batch(std::move(tasks));
  for (int i = 0; i < 10; ++i) pool.post([&] { ++count; });
  tasks.clear();
  for (int i = 0; i < 10; ++i) tasks.push_back([&] { ++count; });
  auto b2 = pool.submit_batch(std::move(tasks));
  b1.wait();
  b2.wait();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, PostAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.post([] {}), std::runtime_error);
  EXPECT_THROW(pool.submit_batch({[] {}}), std::runtime_error);
}

TEST(ThreadPool, SubmitAfterShutdownRejectsFutureInsteadOfBrokenPromise) {
  ThreadPool pool(2);
  pool.shutdown();
  // submit() must hand back a valid future carrying the enqueue failure --
  // not throw at the call site, and not a std::future_error broken
  // promise.
  std::future<int> fut;
  ASSERT_NO_THROW(fut = pool.submit([] { return 1; }));
  ASSERT_TRUE(fut.valid());
  try {
    (void)fut.get();
    FAIL() << "expected the rejected future to throw";
  } catch (const std::future_error& e) {
    FAIL() << "broken promise leaked to the caller: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shutdown"), std::string::npos);
  }
}

TEST(ThreadPool, ShutdownIsIdempotentAndJoins) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) pool.post([&] { ++count; });
  pool.wait_idle();
  pool.shutdown();
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(count.load(), 8);
}

TEST(BatchQueue, RespectsSlotLimit) {
  net::SimNetwork net({}, 1);
  BatchQueueOptions opt;
  opt.slots = 2;
  opt.mean_queue_overhead_s = 0.0;
  SimBatchQueue q(net.scheduler(), net.clock(), opt, 1);

  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    q.submit(10.0, [&] { completions.push_back(net.now()); });
  }
  net.run_all();
  ASSERT_EQ(completions.size(), 4u);
  // 2 slots: first two finish at 10, next two at 20.
  EXPECT_NEAR(completions[0], 10.0, 1e-9);
  EXPECT_NEAR(completions[1], 10.0, 1e-9);
  EXPECT_NEAR(completions[2], 20.0, 1e-9);
  EXPECT_NEAR(completions[3], 20.0, 1e-9);
  EXPECT_EQ(q.stats().completed, 4u);
  EXPECT_GE(q.stats().max_queue_length, 2u);
  EXPECT_NEAR(q.stats().busy_seconds, 40.0, 1e-9);
}

TEST(BatchQueue, QueueOverheadDelaysStart) {
  net::SimNetwork net({}, 1);
  BatchQueueOptions opt;
  opt.slots = 8;
  opt.mean_queue_overhead_s = 100.0;
  SimBatchQueue q(net.scheduler(), net.clock(), opt, 7);

  double done_at = -1.0;
  q.submit(1.0, [&] { done_at = net.now(); });
  net.run_all();
  EXPECT_GT(done_at, 1.0);  // paid some scheduling overhead
}

TEST(BatchQueue, ManyJobsAllComplete) {
  net::SimNetwork net({}, 1);
  BatchQueueOptions opt;
  opt.slots = 3;
  opt.mean_queue_overhead_s = 5.0;
  SimBatchQueue q(net.scheduler(), net.clock(), opt, 3);
  int done = 0;
  for (int i = 0; i < 50; ++i) q.submit(2.0, [&] { ++done; });
  net.run_all();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(q.busy_slots(), 0u);
  EXPECT_EQ(q.queued(), 0u);
}

}  // namespace
}  // namespace cg::rm
