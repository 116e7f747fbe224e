#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace impact::exec {

unsigned ThreadPool::default_threads() {
  // Digits only: strtoul would wrap "-1" and accept "+2" and " 3".
  if (const char* env = std::getenv("IMPACT_THREADS")) {
    unsigned v = 0;
    const char* p = env;
    for (; *p >= '0' && *p <= '9'; ++p) {
      v = std::min(v * 10 + static_cast<unsigned>(*p - '0'), 256u);
    }
    if (p != env && *p == '\0' && v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = std::max(threads, 1u);
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto holder = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = holder->get_future();
  std::size_t q = 0;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    q = next_queue_++ % queues_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> qlock(queues_[q]->mutex);
    queues_[q]->tasks.emplace_back([holder] { (*holder)(); });
  }
  wake_.notify_one();
  return fut;
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Queue& victim = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (pending_ == 0) return;  // stop_ set and queues drained.
      --pending_;
    }
    // The claim above guarantees at least one unclaimed task is (or is
    // about to be) queued; `submit` bumps `pending_` before the push, so
    // spin briefly if we raced the enqueue.
    std::function<void()> task;
    while (!try_pop(self, task)) std::this_thread::yield();
    task();  // packaged_task: exceptions land in the submitter's future.
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (size() == 1 || n == 1) {
    // Degenerate batch: run inline. Results are identical either way (the
    // tasks are independent by contract); this just skips the queue.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace impact::exec
