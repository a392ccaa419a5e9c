// A fixed pool of worker threads that runs one blocking parallel loop at
// a time: profiling runs, prune/sensitivity scans, image synthesis bands.
//
// ThreadPool::parallel_for(count, fn) publishes (fn, count) and blocks;
// every worker takes the next index, highest first, from one shared
// counter, and the call returns once every index has run.  Concurrent
// callers queue.  The lowest failing index's exception propagates, so
// error reporting does not depend on how the indices interleaved.  Called
// from one of the pool's own workers, parallel_for runs inline on that
// worker, so a nested call neither deadlocks nor hires more threads.
//
// Tasks are coarse, so one mutex guards all shared state.  Every shared
// field carries AVF_GUARDED_BY, so a clang -Werror=thread-safety build
// rejects any access outside the lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace avf::util {

class ThreadPool {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Resolve a thread-count knob: 0 -> hardware_concurrency (min 1).
  static std::size_t resolve_threads(std::size_t requested);

  /// Run fn(i) for every i in [0, count) on the workers; blocks until every
  /// index has run, then rethrows the exception of the lowest failing
  /// index.  Runs inline when called from one of this pool's workers.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      AVF_EXCLUDES(mutex_);

  /// Index of the calling worker thread within this pool, or size() when
  /// called from a non-worker thread.  Lets parallel_for payloads pick a
  /// per-worker context (e.g. one profiling testbed per worker).
  std::size_t current_worker() const;

 private:
  void worker_loop(std::size_t self) AVF_EXCLUDES(mutex_);
  void stop() AVF_EXCLUDES(mutex_);

  const std::size_t size_;
  Mutex mutex_;
  std::condition_variable_any work_;  // wakes workers: a loop or a stop
  std::condition_variable_any done_;  // wakes callers: the loop finished
  // The loop in flight (fn_ == nullptr when none): the top next_ indices
  // are taken, `finished_` of them have run; err_ is the exception of the
  // lowest failing index so far, err_index_.
  const std::function<void(std::size_t)>* fn_ AVF_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t count_ AVF_GUARDED_BY(mutex_) = 0;
  std::size_t next_ AVF_GUARDED_BY(mutex_) = 0;
  std::size_t finished_ AVF_GUARDED_BY(mutex_) = 0;
  std::size_t err_index_ AVF_GUARDED_BY(mutex_) = 0;
  std::exception_ptr err_ AVF_GUARDED_BY(mutex_);
  bool stopping_ AVF_GUARDED_BY(mutex_) = false;
  std::vector<std::jthread> threads_;  // last member: joins before teardown
};

/// Run fn(i) for every i in [0, count) on `threads` workers (0 =
/// hardware_concurrency).  This is the one place besides the profiling
/// driver that chooses between inline and pooled execution: it runs inline
/// on the calling thread when `threads` resolves to 1, count <= 1, or the
/// caller is a worker of any pool, else on a pool hired for this call.
/// Either way the exception of the lowest failing index propagates.
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace avf::util
