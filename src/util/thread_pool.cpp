#include "src/util/thread_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "src/util/metrics.hpp"

namespace iarank::util {

namespace {

// Pool observability: depth of the shared queue, tasks executed, and the
// wall time of each executed task (a task here is one batch-drain helper,
// not one index). Durations and depths are scheduling-dependent; only
// the batch counter is deterministic.
Counter& kPoolTasks = MetricsRegistry::counter(
    "iarank_pool_tasks_total", "tasks executed by pool workers");
Counter& kPoolBatches = MetricsRegistry::counter(
    "iarank_pool_batches_total", "parallel_for batches dispatched");
Gauge& kPoolQueueDepth = MetricsRegistry::gauge(
    "iarank_pool_queue_depth", "tasks waiting in the shared pool queue");
Histogram& kPoolTaskSeconds = MetricsRegistry::histogram(
    "iarank_pool_task_seconds", Histogram::duration_bounds(),
    "wall time of executed pool tasks");

/// Shared state of one parallel_for batch. Helper tasks enqueued on the
/// pool and the calling thread all claim indices from the same cursor, and
/// every claimed index runs. `pending` counts the indices not yet finished
/// or skipped; the batch is complete exactly when it reaches 0, so the
/// caller cannot return while a claimed index still runs. A failure moves
/// the cursor to `n`, which stops all claiming and counts the unclaimed
/// rest as skipped. Helpers that start late (or never) find the cursor
/// exhausted and touch only the batch, which the shared_ptr keeps alive
/// until the last of them fires.
struct Batch {
  std::size_t n = 0;
  std::function<void(std::size_t)> fn;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending = 0;  ///< indices not yet finished or skipped (guarded)
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr thrown;
      try {
        fn(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      bool finished = false;
      {
        const std::scoped_lock lock(mutex);
        if (thrown) {
          // Stop claiming; the indices nobody claimed yet count as skipped.
          pending -= n - std::min(next.exchange(n), n);
          if (i < error_index) {
            error_index = i;
            error = std::move(thrown);
          }
        }
        finished = --pending == 0;
      }
      if (finished) done.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned workers) : creator_pid_(::getpid()) {
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      kPoolQueueDepth.set(static_cast<std::int64_t>(queue_.size()));
    }
    kPoolTasks.inc();
    const ScopedTimer timer(nullptr, &kPoolTaskSeconds);
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, unsigned parallelism,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (::getpid() != creator_pid_) {
    // Forked child: the worker threads did not survive fork, and mutex_ may
    // have been held by one of them at fork time. Run inline without ever
    // touching the pool's shared state.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const unsigned capacity = worker_count() + 1;  // workers + calling thread
  unsigned p = parallelism == 0 ? capacity : std::min(parallelism, capacity);
  p = static_cast<unsigned>(std::min<std::size_t>(p, n));
  if (p <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->pending = n;
  batch->fn = fn;
  kPoolBatches.inc();
  {
    const std::scoped_lock lock(mutex_);
    for (unsigned h = 0; h + 1 < p; ++h) {
      queue_.emplace_back([batch] { batch->drain(); });
    }
    kPoolQueueDepth.set(static_cast<std::int64_t>(queue_.size()));
  }
  work_ready_.notify_all();

  batch->drain();  // the calling thread always participates
  std::exception_ptr error;
  {
    std::unique_lock lock(batch->mutex);
    batch->done.wait(lock, [&batch] { return batch->pending == 0; });
    // Taken out under the lock, so a late helper that drops the batch
    // never releases the exception the caller is handling.
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

}  // namespace iarank::util
