#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace avf::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimestampsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  double inner_time = -1.0;
  sim.schedule(1.0, [&] {
    sim.schedule(0.5, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 1.5);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, CancelFromEventAtSameTimestamp) {
  // Equal-timestamp events run in schedule order, so an earlier event can
  // cancel a later one the queue has already committed to the same time.
  Simulator sim;
  bool fired = false;
  EventHandle victim;
  sim.schedule(1.0, [&] { victim.cancel(); });
  victim = sim.schedule(1.0, [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(victim.pending());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, DoubleCancelIsNoop) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  h.cancel();
  h.cancel();  // second cancel of a pending-then-cancelled event
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule(1.0, [&] { fired.push_back(1.0); });
  sim.schedule(2.0, [&] { fired.push_back(2.0); });
  sim.schedule(5.0, [&] { fired.push_back(5.0); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 3.0);
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [] {});
  EventHandle h = sim.schedule(1.0, [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.events_processed(), 10u);  // cancelled event not counted
}

TEST(Simulator, OwnerIdsAreUnique) {
  Simulator sim;
  OwnerId a = sim.new_owner_id();
  OwnerId b = sim.new_owner_id();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoOwner);
}

// A spawned process still suspended when the simulator dies must have its
// frame (and the frames of children it is awaiting) destroyed — locals'
// destructors run, and LeakSanitizer sees no leak.  Regression: detached
// frames used to be reachable only through the event queue and leaked when
// a run ended with processes mid-await.
TEST(Simulator, AbandonedSpawnedProcessesAreReclaimed) {
  auto cleaned = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> n;
    ~Bump() { ++*n; }
  };
  {
    Simulator sim;
    auto child = [](Simulator& s, std::shared_ptr<int> n) -> Task<> {
      Bump b{std::move(n)};
      co_await s.delay(100.0);  // never reached before teardown
    };
    auto parent = [&child](Simulator& s, std::shared_ptr<int> n) -> Task<> {
      Bump b{n};
      co_await child(s, std::move(n));
    };
    sim.spawn(parent(sim, cleaned));
    sim.spawn(child(sim, cleaned));
    sim.run_until(1.0);  // both processes now parked on delay(100)
    EXPECT_EQ(*cleaned, 0);
  }
  EXPECT_EQ(*cleaned, 3);  // parent + its child + the directly spawned child
}

// Teardown of abandoned frames must run in spawn order.  Regression: the
// tracker used to be iterated directly — a hash map keyed on frame
// *addresses*, so the destruction order (observable through locals'
// destructors, which may log) varied with ASLR from run to run.
TEST(Simulator, AbandonedProcessesDestroyedInSpawnOrder) {
  std::vector<int> order;
  struct Tracer {
    std::vector<int>* order;
    int id;
    ~Tracer() { order->push_back(id); }
  };
  {
    Simulator sim;
    auto forever = [](Simulator& s, std::vector<int>& log,
                      int id) -> Task<> {
      Tracer t{&log, id};
      co_await s.delay(1e9);  // never reached before teardown
    };
    for (int i = 0; i < 16; ++i) sim.spawn(forever(sim, order, i));
    sim.run_until(1.0);  // every process is parked on its long delay
    EXPECT_TRUE(order.empty());
  }
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(Simulator, MassCancellationKeepsQueueBoundedAndOrdered) {
  // 100k schedule/cancel cycles: a cancelled event leaves the queue at
  // once (the seed implementation kept every cancelled event until its
  // timestamp drained), so the queue holds exactly the live events after
  // every round, and the survivors still fire in exact (time, seq) order.
  Simulator sim;
  std::vector<double> fired;
  std::vector<EventHandle> survivors;
  constexpr int kRounds = 100;
  constexpr int kPerRound = 1000;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventHandle> handles;
    handles.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      // Mixed horizons: some events fire within the round, most later.
      double delay = (i % 97 + 1) * (i % 2 ? 0.001 : 1.0);
      double at = sim.now() + delay;
      handles.push_back(sim.schedule(delay, [&fired, at] {
        fired.push_back(at);
      }));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 100 != 0) {
        handles[i].cancel();
      } else {
        survivors.push_back(handles[i]);
      }
    }
    ASSERT_EQ(sim.queued_events(), survivors.size() - fired.size());
    sim.run_until(sim.now() + 0.005);
    ASSERT_EQ(sim.queued_events(), survivors.size() - fired.size());
  }
  sim.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  std::size_t still_pending = 0;
  for (EventHandle& h : survivors) still_pending += h.pending() ? 1 : 0;
  EXPECT_EQ(still_pending, 0u);
  EXPECT_EQ(fired.size(), survivors.size());
  EXPECT_EQ(sim.queued_events(), 0u);
}

/// A seeded random script run in lockstep against a std::set reference of
/// the pending (time, id) keys, where ids count schedule calls.  Each event,
/// as it fires, must be the reference minimum; its callback may cancel any
/// handle or schedule more.  queued_events() is checked after every
/// operation, every handle's pending() after every 16th.  Delays are quarter steps, one in four of them
/// zero, so equal timestamps are common and every sum is exact.
class QueueScript {
 public:
  explicit QueueScript(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      std::uint64_t kind = rng_.next_below(20);
      if (kind < 9) {
        schedule();
      } else if (kind < 13) {
        cancel_any();
      } else if (kind < 17) {
        ASSERT_EQ(sim_.step(), !pending_.empty());
      } else {
        // Short advances, zero included, keep 100-odd events queued.
        SimTime t =
            sim_.now() + 0.25 * static_cast<double>(rng_.next_below(3));
        sim_.run_until(t);
        ASSERT_EQ(sim_.now(), t);
        ASSERT_TRUE(pending_.empty() || pending_.begin()->first > t);
      }
      ASSERT_EQ(sim_.queued_events(), pending_.size());
      if (op % 16 == 0) check();
    }
    if (::testing::Test::HasFailure()) return;
    SimTime start = sim_.now();
    sim_.run();
    EXPECT_TRUE(pending_.empty());
    // The largest time ever scheduled, cancelled events included.
    EXPECT_EQ(sim_.now(), std::max(start, max_time_));
    EXPECT_EQ(sim_.events_processed(), fired_);
    check();
  }

 private:
  SimTime draw_delay() {
    if (rng_.next_below(4) == 0) return 0.0;
    return 0.25 * static_cast<double>(rng_.next_below(256));
  }

  void schedule() {
    std::size_t id = handles_.size();
    SimTime at = sim_.now() + draw_delay();
    times_.push_back(at);
    max_time_ = std::max(max_time_, at);
    pending_.emplace(at, id);
    auto fn = [this, id] { on_fire(id); };
    handles_.push_back(rng_.next_below(2) == 0
                           ? sim_.schedule(at - sim_.now(), fn)
                           : sim_.schedule_at(at, fn));
  }

  /// Any handle: pending, fired or already cancelled.  Half the draws
  /// come from the newest 256 handles, most of which are still pending.
  void cancel_any() {
    std::size_t n = handles_.size();
    if (n == 0) return;
    std::size_t recent = std::min<std::size_t>(n, 256);
    std::size_t id = rng_.next_below(2) == 0
                         ? rng_.next_below(n)
                         : n - 1 - rng_.next_below(recent);
    handles_[id].cancel();
    ASSERT_FALSE(handles_[id].pending());
    pending_.erase({times_[id], id});
  }

  void on_fire(std::size_t id) {
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(pending_.begin()->second, id);
    ASSERT_EQ(sim_.now(), times_[id]);
    pending_.erase(pending_.begin());
    ++fired_;
    ASSERT_FALSE(handles_[id].pending());
    std::uint64_t action = rng_.next_below(4);
    if (action == 0) cancel_any();
    if (action == 1) schedule();
  }

  /// Every handle's pending() against the reference.
  void check() {
    ASSERT_EQ(sim_.queued_events(), pending_.size());
    for (std::size_t id = 0; id < handles_.size(); ++id) {
      ASSERT_EQ(handles_[id].pending(), pending_.contains({times_[id], id}))
          << "event " << id;
    }
  }

  Simulator sim_;
  util::SplitMix64 rng_;
  std::set<std::pair<SimTime, std::size_t>> pending_;
  std::vector<EventHandle> handles_;
  std::vector<SimTime> times_;  // by id
  std::uint64_t fired_ = 0;
  SimTime max_time_ = 0.0;
};

TEST(Simulator, RandomScriptsMatchOrderedSetReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    QueueScript(seed).run(2000);
    if (HasFailure()) return;
  }
}

TEST(Simulator, CompletedSpawnedProcessesAreNotDoubleDestroyed) {
  Simulator sim;
  int runs = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, int& r) -> Task<> {
      co_await s.yield();
      ++r;
    }(sim, runs));
  }
  sim.run();
  EXPECT_EQ(runs, 4);  // frames self-destroyed at final suspend; the
                       // destructor must find nothing left to reclaim
}

}  // namespace
}  // namespace avf::sim
