#include "util/thread_pool.hpp"

#include <utility>

namespace avf::util {

namespace {
// The pool (if any) the current thread works for, and its index there.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;
}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) : size_(resolve_threads(threads)) {
  threads_.reserve(size_);
  try {
    for (std::size_t i = 0; i < size_; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    stop();  // the workers already started must see it, or joining hangs
    throw;
  }
}

// threads_, the last member, joins every worker before the rest goes.
ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_.notify_all();
}

std::size_t ThreadPool::current_worker() const {
  return tls_pool == this ? tls_index : size();
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_pool = this;
  tls_index = self;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t i = 0;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && (fn_ == nullptr || next_ == count_)) {
        work_.wait(lock);
      }
      if (stopping_) return;  // never set while a loop is in flight
      fn = fn_;
      // Highest first: lowest first measured a higher, less steady peak
      // RSS and more wall time on the profile_grid benchmark.
      i = count_ - 1 - next_++;
    }
    std::exception_ptr err;
    try {
      (*fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    MutexLock lock(mutex_);
    if (err && i < err_index_) {
      err_index_ = i;
      err_ = std::move(err);
    }
    if (++finished_ == count_) done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (tls_pool == this) {
    // A worker waiting on its own pool would wait for itself.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::exception_ptr err;
  {
    MutexLock lock(mutex_);
    while (fn_ != nullptr) done_.wait(lock);  // another caller's loop
    fn_ = &fn;
    count_ = count;
    next_ = 0;
    finished_ = 0;
    err_index_ = count;
    work_.notify_all();
    // `fn` lives on this frame; no worker touches it once all finished.
    while (finished_ != count) done_.wait(lock);
    fn_ = nullptr;
    err = std::exchange(err_, nullptr);
  }
  done_.notify_all();  // a caller queued behind this loop may publish now
  if (err) std::rethrow_exception(err);
}

void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (tls_pool == nullptr && ThreadPool::resolve_threads(threads) > 1 &&
      count > 1) {
    ThreadPool(threads).parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace avf::util
