#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

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
  // Regression for the ladder queue's tombstone handling: 100k
  // schedule/cancel cycles must not accumulate dead entries (the seed
  // implementation kept every cancelled event until its timestamp
  // drained), and the survivors must still fire in exact (time, seq)
  // order.
  Simulator sim;
  std::vector<double> fired;
  std::vector<EventHandle> survivors;
  std::size_t worst_overhead = 0;
  constexpr int kRounds = 100;
  constexpr int kPerRound = 1000;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventHandle> handles;
    handles.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      // Mixed horizons so both the near heap and the far tier see
      // cancellations.
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
    // Tombstones may never dominate: compaction keeps physical entries
    // within 2x the live count (+1 for the in-flight rounding).
    ASSERT_LE(sim.queue_entries(), 2 * sim.queued_events() + 1);
    worst_overhead = std::max(worst_overhead, sim.queue_entries());
    sim.run_until(sim.now() + 0.005);
  }
  EXPECT_GT(sim.compactions(), 0u);   // near-heap tombstone reclamation ran
  EXPECT_GT(sim.far_removals(), 0u);  // far-tier O(1) removals ran
  // 100k scheduled, 99k cancelled: the queue never held anywhere near the
  // cancelled volume — only ~2x the 1000 surviving events.
  EXPECT_LE(worst_overhead, 2u * kRounds * (kPerRound / 100) + 16u);
  sim.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  std::size_t still_pending = 0;
  for (EventHandle& h : survivors) still_pending += h.pending() ? 1 : 0;
  EXPECT_EQ(still_pending, 0u);
  EXPECT_EQ(fired.size(), survivors.size());
  EXPECT_EQ(sim.queue_entries(), 0u);
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
