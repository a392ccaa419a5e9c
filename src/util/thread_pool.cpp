#include "util/thread_pool.hpp"

#include <atomic>

namespace avf::util {

namespace {
// Which pool (if any) the current thread belongs to, for current_worker().
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;
}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = resolve_threads(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i](std::stop_token token) { worker_loop(token, i); });
  }
}

ThreadPool::~ThreadPool() {
  request_stop();
  // threads_ is the last member: its destruction joins every worker (each
  // drains remaining tasks first), then the deques are torn down.
}

std::size_t ThreadPool::current_worker() const {
  return tls_pool == this ? tls_index : size();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target = 0;
  bool run_inline = false;
  {
    MutexLock lock(wake_mutex_);
    if (stopping_) {
      // Workers may already have drained and exited; run inline so blocked
      // parallel_for callers still see every wrapper complete.
      run_inline = true;
    } else {
      // Prefer the calling worker's own deque (LIFO locality); other
      // threads spread round-robin.
      std::size_t self = current_worker();
      target =
          self < workers_.size() ? self : next_queue_++ % workers_.size();
      ++unclaimed_;
    }
  }
  if (run_inline) {
    task();
    return;
  }
  {
    Worker& w = *workers_[target];
    MutexLock lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& task) {
  bool found = false;
  {
    // Own deque, newest first.
    Worker& w = *workers_[self];
    MutexLock lock(w.mutex);
    if (!w.queue.empty()) {
      task = std::move(w.queue.back());
      w.queue.pop_back();
      found = true;
    }
  }
  for (std::size_t k = 1; !found && k < workers_.size(); ++k) {
    // Steal oldest-first from the other deques.
    Worker& w = *workers_[(self + k) % workers_.size()];
    MutexLock lock(w.mutex);
    if (!w.queue.empty()) {
      task = std::move(w.queue.front());
      w.queue.pop_front();
      found = true;
    }
  }
  if (found) {
    MutexLock lock(wake_mutex_);
    --unclaimed_;
  }
  return found;
}

void ThreadPool::worker_loop(std::stop_token token, std::size_t self) {
  tls_pool = this;
  tls_index = self;
  std::function<void()> task;
  for (;;) {
    if (try_pop(self, task)) {
      task();
      task = nullptr;
      continue;
    }
    MutexLock lock(wake_mutex_);
    if (unclaimed_ > 0) continue;  // raced with a submit; retry the deques
    if (token.stop_requested()) break;
    // Plain wait loop (no predicate lambda) so the guarded `unclaimed_`
    // reads stay visible to thread-safety analysis: the capability is held
    // across wait() by construction of MutexLock.  A stop cannot be missed:
    // request_stop() flips stopping_ and every token under wake_mutex_,
    // then notifies, so a waiter either sees the stop before it sleeps or
    // is woken after it.
    while (unclaimed_ == 0 && !token.stop_requested()) wake_.wait(lock);
    if (token.stop_requested() && unclaimed_ == 0) break;
  }
  // Stop requested: drain leftover tasks (payloads skip themselves when
  // they see the stop) so no parallel_for caller waits forever.
  while (try_pop(self, task)) {
    task();
    task = nullptr;
  }
}

void ThreadPool::request_stop() {
  {
    MutexLock lock(wake_mutex_);
    stopping_ = true;
    // The tokens flip under wake_mutex_ too: worker_loop reads them in its
    // wait predicate under this lock, so a worker that just found its
    // token clear is already inside wait() when notify_all fires.  Outside
    // the lock that wake-up can be lost, and the destructor's join hangs.
    for (std::jthread& t : threads_) t.request_stop();
  }
  wake_.notify_all();
}

bool ThreadPool::stop_requested() const { return stopping_.load(); }

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (size() == 1 && current_worker() == size()) {
    // Single worker and a non-worker caller: run inline, same semantics
    // (lowest-index exception, stop check between indices), no wakeups.
    for (std::size_t i = 0; i < count; ++i) {
      if (stop_requested()) throw ThreadPoolStopped();
      fn(i);
    }
    return;
  }

  // The state lives on this frame and is destroyed only here: the wait
  // below cannot return before every wrapper has made its final state
  // access (the completion notify happens with state.mutex held, so a
  // worker past its notify never touches the state again).  Keeping
  // destruction on the calling thread also keeps the buffered
  // exception_ptr's release thread-deterministic.
  struct State {
    Mutex mutex;
    std::condition_variable_any cv;
    // wrappers finished (payload run or skipped) / payloads actually run
    std::size_t completed AVF_GUARDED_BY(mutex) = 0;
    std::size_t executed AVF_GUARDED_BY(mutex) = 0;
    std::size_t err_index AVF_GUARDED_BY(mutex);
    std::exception_ptr err AVF_GUARDED_BY(mutex);
  };
  State state;
  {
    MutexLock lock(state.mutex);
    state.err_index = count;
  }

  for (std::size_t i = 0; i < count; ++i) {
    submit([this, &state, &fn, count, i] {
      std::exception_ptr err;
      bool ran = false;
      if (!stop_requested()) {
        ran = true;
        try {
          fn(i);
        } catch (...) {
          err = std::current_exception();
        }
      }
      MutexLock lock(state.mutex);
      if (ran) ++state.executed;
      if (err && i < state.err_index) {
        state.err_index = i;
        state.err = std::move(err);
      }
      if (++state.completed == count) state.cv.notify_all();
    });
  }

  MutexLock lock(state.mutex);
  while (state.completed != count) state.cv.wait(lock);
  if (state.err) std::rethrow_exception(state.err);
  if (state.executed != count) throw ThreadPoolStopped();
}

void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (ThreadPool::resolve_threads(threads) > 1 && count > 1) {
    ThreadPool(threads).parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace avf::util
