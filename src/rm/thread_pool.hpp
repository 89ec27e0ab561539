// ConGrid -- thread pool.
//
// The real-execution substrate behind the data-flow engine: a fixed set
// of workers draining a task queue. The wave scheduler (core/engine)
// drives it through submit_batch(), which enqueues a whole wave under one
// lock and hands back a Batch barrier to wait on at the wave boundary.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cg::rm {

class ThreadPool {
 public:
  /// Completion barrier for one submit_batch() call. Copyable handle;
  /// default-constructed handles are already "done".
  class Batch {
   public:
    Batch() = default;

    /// Block until every task in the batch has run to completion (not just
    /// been dequeued). Condition-variable wait, no spinning.
    void wait();

    /// True once every task has finished.
    bool done() const;

   private:
    friend class ThreadPool;
    struct State {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t remaining = 0;
    };
    std::shared_ptr<State> st_;
  };

  /// `threads` == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  /// Equivalent to shutdown(): pending tasks are discarded, running tasks
  /// joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Throws std::runtime_error after shutdown began.
  void post(std::function<void()> task);

  /// Enqueue a task and get a future for its result. A failure to enqueue
  /// (post after shutdown) REJECTS the returned future -- the future
  /// carries the std::runtime_error instead of a broken-promise
  /// std::future_error -- so callers have exactly one error channel:
  /// future.get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto prom = std::make_shared<std::promise<R>>();
    auto fut = prom->get_future();
    try {
      post([prom, fn = std::forward<F>(f)]() mutable {
        try {
          if constexpr (std::is_void_v<R>) {
            fn();
            prom->set_value();
          } else {
            prom->set_value(fn());
          }
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
      });
    } catch (...) {
      prom->set_exception(std::current_exception());
    }
    return fut;
  }

  /// Enqueue every task under a single lock acquisition (one wake-all
  /// instead of per-task signalling) and return a barrier that completes
  /// when all of them have run. An empty batch is already done. Tasks must
  /// not throw (same contract as post); wrap work that can fail. Throws
  /// std::runtime_error after shutdown began.
  Batch submit_batch(std::vector<std::function<void()>> tasks);

  /// Stop accepting work, discard pending tasks and join the workers.
  /// Idempotent; the destructor calls it. Batches whose tasks were still
  /// pending never complete -- shut down only between waves.
  void shutdown();

  /// Block until the queue is empty and all workers are idle.
  void wait_idle();

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }
  std::size_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< wakes workers
  std::condition_variable idle_cv_;   ///< wakes wait_idle
  std::deque<std::function<void()>> queue_;
  unsigned active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cg::rm
