// A small work-stealing thread pool shared by the offline subsystems
// (profiling driver, prune/sensitivity post-passes), and parallel_for(),
// the one-shot fan-out those post-passes use.
//
// Design:
//   - N workers on std::jthread; each worker owns a mutex-guarded deque.
//     Workers pop their own deque LIFO (hot cache) and steal from other
//     deques FIFO (oldest first), so skewed shard sizes rebalance.
//   - Stop-token aware: request_stop() (or destruction) wakes sleepers via
//     std::condition_variable_any; queued tasks are still *drained* after a
//     stop so blocking callers never hang, but parallel_for payloads are
//     skipped and the call reports cancellation.
//   - parallel_for(count, fn) is the main entry point: it fans fn(0..count)
//     out across the workers, blocks until every index completed, and
//     rethrows the failing index's exception.  When several indices throw,
//     the *lowest* index wins, so error reporting is deterministic no
//     matter how the shards interleaved.
//
// The pool is intended for coarse tasks (a profiling run, an O(n) pair
// scan); it makes no attempt at lock-free deques, which keeps it trivially
// ThreadSanitizer-clean — and the lock discipline itself is statically
// checked: every shared field carries AVF_GUARDED_BY, so a clang
// -Werror=thread-safety build rejects any access outside the right lock.
// ThreadPool::parallel_for must not be called from inside a task of the
// same pool (the caller blocks without helping, so nested calls on a
// saturated pool can deadlock).  The free util::parallel_for below hires a
// pool of its own, so it may be called from inside any pool task.
//
// The free util::parallel_for(threads, count, fn) is the one place besides
// the profiling driver's workers that chooses between running inline and
// running on a pool: it runs on the calling thread when `threads` resolves
// to 1 or count <= 1, else on a pool hired for the call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace avf::util {

/// Thrown by parallel_for when the pool was stopped before every index ran.
class ThreadPoolStopped : public std::runtime_error {
 public:
  ThreadPoolStopped() : std::runtime_error("thread_pool: stopped") {}
};

class ThreadPool {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Resolve a thread-count knob: 0 -> hardware_concurrency (min 1).
  static std::size_t resolve_threads(std::size_t requested);

  /// Enqueue one fire-and-forget task (round-robin across worker deques).
  /// Tasks must not throw; use parallel_for for exception propagation.
  void submit(std::function<void()> task) AVF_EXCLUDES(wake_mutex_);

  /// Run fn(i) for every i in [0, count); blocks until all indices
  /// completed.  Rethrows the exception of the lowest failing index; throws
  /// ThreadPoolStopped if the pool was stopped before all payloads ran.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Index of the calling worker thread within this pool, or size() when
  /// called from a non-worker thread.  Lets parallel_for payloads pick a
  /// per-worker context (e.g. one profiling testbed per worker).
  std::size_t current_worker() const;

  /// Ask workers to stop; queued tasks are drained (payloads skipped).
  void request_stop() AVF_EXCLUDES(wake_mutex_);
  bool stop_requested() const;

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> queue AVF_GUARDED_BY(mutex);
  };

  void worker_loop(std::stop_token token, std::size_t self);
  /// Pop own back, else steal another queue's front.
  bool try_pop(std::size_t self, std::function<void()>& task)
      AVF_EXCLUDES(wake_mutex_);

  std::vector<std::unique_ptr<Worker>> workers_;
  // Guards `unclaimed_` and the sleep/wake handshake (a task enqueued
  // between a worker's empty check and its wait must not be lost).
  Mutex wake_mutex_;
  std::condition_variable_any wake_;
  std::size_t unclaimed_ AVF_GUARDED_BY(wake_mutex_) = 0;
  std::size_t next_queue_ AVF_GUARDED_BY(wake_mutex_) = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::jthread> threads_;  // last member: joins before teardown
};

/// Run fn(i) for every i in [0, count) on `threads` workers (0 =
/// hardware_concurrency).  Runs inline on the calling thread when `threads`
/// resolves to 1 or count <= 1, else on a pool hired for this call.  Either
/// way the exception of the lowest failing index propagates.
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace avf::util
