#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace avf::util {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ResultIndependentOfExecutionOrder) {
  // The same reduction computed at several pool widths must agree with the
  // serial answer: sharding may reorder execution, never results.
  constexpr std::size_t kCount = 1000;
  std::vector<long> expected(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    expected[i] = static_cast<long>(i * i % 9973);
  }
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<long> out(kCount, -1);
    pool.parallel_for(kCount, [&](std::size_t i) {
      out[i] = static_cast<long>(i * i % 9973);
    });
    EXPECT_EQ(out, expected) << "threads=" << threads;
  }
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom 37");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, LowestFailingIndexWins) {
  // Deterministic error reporting: no matter how shards interleave, the
  // exception of the lowest failing index is the one rethrown.
  for (int attempt = 0; attempt < 5; ++attempt) {
    ThreadPool pool(4);
    try {
      pool.parallel_for(200, [](std::size_t i) {
        if (i % 3 == 2) {  // 2, 5, 8, ... all fail
          throw std::runtime_error("fail " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 2");
    }
  }
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, StealingBalancesSkewedShards) {
  // One giant shard plus many tiny ones: with stealing, total wall time is
  // bounded by the giant shard, not the sum.  We assert the behavioral
  // consequence that at least two distinct workers executed tasks.
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::size_t> seen_workers;
  pool.parallel_for(64, [&](std::size_t i) {
    // Index 0 is ~50x heavier than the rest.
    auto spin = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(i == 0 ? 50 : 1);
    while (std::chrono::steady_clock::now() < spin) {
    }
    std::scoped_lock lock(mutex);
    seen_workers.insert(pool.current_worker());
  });
  EXPECT_GE(seen_workers.size(), 2u);
  for (std::size_t w : seen_workers) EXPECT_LT(w, pool.size());
}

TEST(ThreadPool, CurrentWorkerOutsidePoolIsSize) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.current_worker(), pool.size());
}

TEST(ThreadPool, RepeatedTeardownNeverLosesTheStopWakeup) {
  // Destruction right after a sweep races request_stop() against workers
  // that are about to sleep.  A stop request the sleeper misses hangs the
  // destructor's join, so this loop only finishes if every wake-up lands.
  std::atomic<std::size_t> ran{0};
  for (int iter = 0; iter < 2000; ++iter) {
    ThreadPool pool(4);
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 2000u * 8u);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedCallRunsInlineOnTheWorker) {
  // Both workers run an outer index that blocks on the same pool; waiting
  // for the pool from inside it would deadlock, so the nested loop runs on
  // the outer index's own thread.
  ThreadPool pool(2);
  std::vector<std::thread::id> outer(2);
  std::vector<std::vector<std::thread::id>> nested(
      2, std::vector<std::thread::id>(50));
  pool.parallel_for(2, [&](std::size_t o) {
    outer[o] = std::this_thread::get_id();
    pool.parallel_for(50, [&](std::size_t i) {
      nested[o][i] = std::this_thread::get_id();
    });
  });
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(nested[o][i], outer[o]) << "outer " << o << " index " << i;
    }
  }
}

TEST(ParallelFor, RunsInlineForOneThreadOrOneIndex) {
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t hw = ThreadPool::resolve_threads(0);
  struct Case {
    std::size_t threads;
    std::size_t count;
  };
  std::vector<Case> cases{{1, 0}, {1, 1}, {1, 50}, {4, 0}, {4, 1}};
  if (hw == 1) cases.push_back({0, 50});  // 0 resolves to 1 here
  for (const Case& c : cases) {
    std::vector<std::size_t> order;
    parallel_for(c.threads, c.count, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> want(c.count);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want) << "threads=" << c.threads << " count=" << c.count;
  }
}

TEST(ParallelFor, PooledRunsEveryIndexOffTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> on_caller{0};
  parallel_for(4, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ParallelFor, FromAPoolWorkerRunsInline) {
  // A free parallel_for inside a pool task hires no second pool.
  ThreadPool pool(2);
  std::thread::id worker;
  std::vector<std::thread::id> ran(100);
  pool.parallel_for(1, [&](std::size_t) {
    worker = std::this_thread::get_id();
    parallel_for(4, ran.size(),
                 [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  });
  EXPECT_NE(worker, std::this_thread::get_id());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], worker) << "index " << i;
  }
}

TEST(ParallelFor, LowestFailingIndexWinsInBothModes) {
  for (std::size_t threads : {1u, 4u}) {
    try {
      parallel_for(threads, 200, [](std::size_t i) {
        if (i % 3 == 2) throw std::runtime_error("fail " + std::to_string(i));
      });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 2") << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace avf::util
