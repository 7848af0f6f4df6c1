/// \file thread_pool.hpp
/// \brief Persistent worker pool shared by every parallel driver.
///
/// The sweep engine, the architecture optimizer, the annealer restarts and
/// the sensitivity analysis all fan independent rank evaluations out over
/// the same process-wide pool instead of spawning raw std::threads per
/// call. Guarantees:
///
///  * deterministic result ordering — parallel_for hands each task its
///    index, so callers write results[i] and ordering never depends on
///    scheduling;
///  * exception propagation — the lowest-index failure among executed
///    tasks is rethrown on the calling thread;
///  * no nested deadlock — the calling thread always participates in its
///    own batch, so a batch completes even when every worker is busy (or
///    the pool has zero workers on a single-core host).

#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iarank::util {

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads (0 is allowed: every batch then
  /// runs inline on the calling thread).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(n-1) with at most `parallelism` tasks in flight
  /// (0 = workers + the calling thread). Indices are claimed one at a time
  /// from a shared counter, so ordering of *writes* is up to the caller
  /// (index into a presized vector for deterministic output). Returns only
  /// after every claimed index has finished, so fn may capture the
  /// caller's stack. If any invocation throws, no further index is
  /// claimed, and the exception of the lowest executed failing index is
  /// rethrown once the claimed ones have finished.
  void parallel_for(std::size_t n, unsigned parallelism,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// The process-wide pool, sized to the hardware concurrency. Created on
  /// first use; lives until process exit.
  static ThreadPool& shared();

 private:
  void worker_loop();

  /// fork() does not duplicate worker threads, so a child that inherits a
  /// pool created by its parent must never enqueue work on it (the queue
  /// would grow unbounded and the inherited mutex may be mid-acquire).
  /// parallel_for detects this by pid and runs inline in the child.
  const pid_t creator_pid_;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;
};

}  // namespace iarank::util
