// Work-stealing thread pool: the execution substrate of the experiment
// engine (src/exec/sweep.hpp).
//
// Every paper figure this repo reproduces is an embarrassingly-parallel
// grid of independent MemorySystem runs; the pool exists to keep all cores
// busy on that grid. Tasks are coarse (whole simulated runs, milliseconds
// to seconds each), so the design optimizes for correctness under TSan and
// deterministic client results, not for nanosecond dispatch: each worker
// owns a mutex-protected deque, pops from its own front and steals from
// the back of a sibling's deque when it runs dry.
//
// Thread-count selection: `ThreadPool()` honours the IMPACT_THREADS
// environment variable, falling back to std::thread::hardware_concurrency.
// Batch results are required to be independent of where a task ran, so a
// single-worker pool (or a batch of one) may execute inline on the caller
// — determinism tests compare results across pool sizes {1, 2, 8}.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace impact::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(unsigned threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// IMPACT_THREADS if it is all digits and at least 1 (clamped to 256),
  /// else hardware_concurrency, else 1.
  [[nodiscard]] static unsigned default_threads();

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task. The future carries the task's exception, if any.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete.
  /// The first exception thrown by any index is rethrown here (after every
  /// started task has finished); remaining unstarted indices still run —
  /// batch members are independent by contract. n == 0 is a no-op.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  /// Pops from own queue front, else steals from a sibling's back.
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::size_t next_queue_ = 0;  ///< Round-robin submit cursor.
  std::size_t pending_ = 0;     ///< Enqueued tasks not yet claimed.
  bool stop_ = false;
};

}  // namespace impact::exec
