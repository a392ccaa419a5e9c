#include "sim/fluid_resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sim {
namespace {

/// Run one consume() and return its completion time.
double timed_consume(Simulator& sim, FluidResource& res, double amount,
                     ShareSlotPtr slot, OwnerId owner = kNoOwner) {
  double finished = -1.0;
  auto proc = [&]() -> Task<> {
    co_await res.consume(amount, slot, owner);
    finished = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  return finished;
}

TEST(FluidResource, SoleUncappedConsumerGetsFullCapacity) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  EXPECT_DOUBLE_EQ(timed_consume(sim, res, 50.0, make_share_slot()), 0.5);
}

TEST(FluidResource, CapLimitsRate) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  // Cap 0.25 of 100 units/s -> 25 units/s -> 100 units take 4 s.
  EXPECT_DOUBLE_EQ(timed_consume(sim, res, 100.0, make_share_slot(0.25)), 4.0);
}

TEST(FluidResource, EqualWeightsSplitEvenly) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  std::vector<double> done(2, -1.0);
  auto proc = [&](int i) -> Task<> {
    co_await res.consume(100.0, make_share_slot());
    done[i] = sim.now();
  };
  sim.spawn(proc(0));
  sim.spawn(proc(1));
  sim.run();
  // Both run at 50 units/s while sharing; both finish at t=2.
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST(FluidResource, DepartureSpeedsUpRemainder) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  double small_done = -1.0, big_done = -1.0;
  auto small = [&]() -> Task<> {
    co_await res.consume(50.0, make_share_slot());
    small_done = sim.now();
  };
  auto big = [&]() -> Task<> {
    co_await res.consume(150.0, make_share_slot());
    big_done = sim.now();
  };
  sim.spawn(small());
  sim.spawn(big());
  sim.run();
  // Shared at 50/s until t=1 (small finishes with 50 done); big has 100
  // left and then runs at 100/s, finishing at t=2.
  EXPECT_DOUBLE_EQ(small_done, 1.0);
  EXPECT_DOUBLE_EQ(big_done, 2.0);
}

TEST(FluidResource, WeightsSplitProportionally) {
  Simulator sim;
  FluidResource res(sim, "cpu", 90.0);
  double a_done = -1.0, b_done = -1.0;
  auto a = [&]() -> Task<> {
    co_await res.consume(60.0, make_share_slot(1.0, 2.0));  // weight 2
    a_done = sim.now();
  };
  auto b = [&]() -> Task<> {
    co_await res.consume(60.0, make_share_slot(1.0, 1.0));  // weight 1
    b_done = sim.now();
  };
  sim.spawn(a());
  sim.spawn(b());
  sim.run();
  // a: 60/s, b: 30/s. a finishes at t=1 (60 done). b then has 30 left at
  // 90/s -> t = 1 + 30/90.
  EXPECT_DOUBLE_EQ(a_done, 1.0);
  EXPECT_NEAR(b_done, 1.0 + 30.0 / 90.0, 1e-9);
}

TEST(FluidResource, UnderloadedCapsGiveExactShares) {
  // The paper's §5.1 guarantee: under-loaded -> everyone gets exactly cap.
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  double a_done = -1.0, b_done = -1.0;
  auto a = [&]() -> Task<> {
    co_await res.consume(40.0, make_share_slot(0.4));
    a_done = sim.now();
  };
  auto b = [&]() -> Task<> {
    co_await res.consume(20.0, make_share_slot(0.4));
    b_done = sim.now();
  };
  sim.spawn(a());
  sim.spawn(b());
  sim.run();
  EXPECT_DOUBLE_EQ(a_done, 1.0);  // exactly 40 units/s
  EXPECT_DOUBLE_EQ(b_done, 0.5);  // exactly 40 units/s
}

TEST(FluidResource, CapChangeMidFlightReallocates) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  ShareSlotPtr slot = make_share_slot(1.0);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await res.consume(100.0, slot);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.schedule(0.5, [&] {
    slot->cap = 0.25;  // after 50 served at 100/s, drop to 25/s
    res.reallocate();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.5 + 50.0 / 25.0);
}

TEST(FluidResource, ZeroCapStallsUntilRaised) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  ShareSlotPtr slot = make_share_slot(0.0);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await res.consume(100.0, slot);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.schedule(3.0, [&] {
    slot->cap = 1.0;
    res.reallocate();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(FluidResource, CapacityChangeMidFlight) {
  Simulator sim;
  FluidResource res(sim, "net", 100.0);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await res.consume(100.0, make_share_slot());
    done = sim.now();
  };
  sim.spawn(proc());
  sim.schedule(0.5, [&] { res.set_capacity(10.0); });
  sim.run();
  // 50 served in first 0.5 s; remaining 50 at 10/s -> 5 s more.
  EXPECT_DOUBLE_EQ(done, 5.5);
}

TEST(FluidResource, ZeroAmountCompletesImmediately) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  EXPECT_DOUBLE_EQ(timed_consume(sim, res, 0.0, make_share_slot()), 0.0);
}

TEST(FluidResource, ServedAccounting) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  OwnerId owner = sim.new_owner_id();
  auto proc = [&]() -> Task<> {
    co_await res.consume(30.0, make_share_slot(), owner);
    co_await res.consume(20.0, make_share_slot(), owner);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_NEAR(res.served(owner), 50.0, 1e-6);
  EXPECT_NEAR(res.total_served(), 50.0, 1e-6);
}

TEST(FluidResource, ServedSeesInFlightProgress) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  OwnerId owner = sim.new_owner_id();
  auto proc = [&]() -> Task<> {
    co_await res.consume(100.0, make_share_slot(), owner);
  };
  sim.spawn(proc());
  double observed = -1.0;
  sim.schedule(0.25, [&] { observed = res.served(owner); });
  sim.run();
  EXPECT_NEAR(observed, 25.0, 1e-6);
}

TEST(FluidResource, RejectsNonPositiveCapacity) {
  Simulator sim;
  EXPECT_THROW(FluidResource(sim, "x", 0.0), std::invalid_argument);
  FluidResource res(sim, "ok", 1.0);
  EXPECT_THROW(res.set_capacity(-5.0), std::invalid_argument);
}

TEST(FluidResource, RejectsNullSlotAndBadWeight) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  auto bad_slot = [&]() -> Task<> {
    co_await res.consume(1.0, nullptr);
  };
  sim.spawn(bad_slot());
  EXPECT_THROW(sim.run(), std::invalid_argument);

  Simulator sim2;
  FluidResource res2(sim2, "cpu", 100.0);
  auto bad_weight = [&]() -> Task<> {
    co_await res2.consume(1.0, make_share_slot(1.0, 0.0));
  };
  sim2.spawn(bad_weight());
  EXPECT_THROW(sim2.run(), std::invalid_argument);
}

// Property sweep: under-loaded cap configurations always yield exact-share
// completion times (the testbed's core modeling guarantee).
class FluidCapSweep : public ::testing::TestWithParam<double> {};

TEST_P(FluidCapSweep, ExecutionTimeScalesInverselyWithCap) {
  double cap = GetParam();
  Simulator sim;
  FluidResource res(sim, "cpu", 450e6);
  double work = 450e6;  // 1 second at full speed
  double t = timed_consume(sim, res, work, make_share_slot(cap));
  EXPECT_NEAR(t, 1.0 / cap, 1e-9 / cap);
}

INSTANTIATE_TEST_SUITE_P(CapGrid, FluidCapSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                           0.8, 0.9, 1.0));


// -- incremental reallocation counters -----------------------------------

TEST(FluidResource, CappedArrivalsAndDeparturesUseFastPath) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  // Four capped flows summing to 0.8 of capacity: every arrival and every
  // departure stays in the under-loaded regime, so no full water-filling
  // pass ever runs.
  std::vector<double> done(4, -1.0);
  auto proc = [&](int i) -> Task<> {
    co_await res.consume(20.0, make_share_slot(0.2));
    done[i] = sim.now();
  };
  for (int i = 0; i < 4; ++i) sim.spawn(proc(i));
  sim.run();
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(done[i], 1.0);
  EXPECT_EQ(res.full_reallocs(), 0u);
  EXPECT_EQ(res.fast_reallocs(), 8u);  // 4 arrivals + 4 departures
  // Only each flow's own initial rate assignment scheduled an event.
  EXPECT_EQ(res.rate_rescales(), 4u);
  EXPECT_GT(res.flows_skipped(), 0u);
}

TEST(FluidResource, CappedChurnDoesNotRescaleOtherFlows) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  double a_done = -1.0, b_done = -1.0;
  auto a = [&]() -> Task<> {
    co_await res.consume(60.0, make_share_slot(0.3));  // 30/s -> t=2
    a_done = sim.now();
  };
  auto b = [&]() -> Task<> {
    co_await res.consume(15.0, make_share_slot(0.3));  // 30/s -> 0.5 s
    b_done = sim.now();
  };
  sim.spawn(a());
  sim.schedule(0.5, [&] { sim.spawn(b()); });
  sim.run();
  // B's arrival and departure left A's rate (and completion event) alone.
  EXPECT_DOUBLE_EQ(a_done, 2.0);
  EXPECT_DOUBLE_EQ(b_done, 1.0);
  EXPECT_EQ(res.full_reallocs(), 0u);
  EXPECT_EQ(res.fast_reallocs(), 4u);
  EXPECT_EQ(res.rate_rescales(), 2u);  // one initial assignment per flow
  EXPECT_EQ(res.flows_skipped(), 2u);  // A skipped at B's arrival and at
                                       // B's departure
}

TEST(FluidResource, FullPassKeepsBitIdenticalRates) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  std::vector<double> done(2, -1.0);
  auto proc = [&](int i) -> Task<> {
    co_await res.consume(100.0, make_share_slot());  // uncapped: 50/s each
    done[i] = sim.now();
  };
  sim.spawn(proc(0));
  sim.spawn(proc(1));
  // A gratuitous reallocate() mid-flight recomputes the same 50/50 split;
  // both flows must keep their pending completion events untouched.
  sim.schedule(1.0, [&] { res.reallocate(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_GE(res.rate_keeps(), 2u);
}

TEST(FluidResource, OversubscribedArrivalIsNotFast) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  std::vector<double> done(2, -1.0);
  auto proc = [&](int i) -> Task<> {
    co_await res.consume(100.0, make_share_slot(0.8));
    done[i] = sim.now();
  };
  sim.spawn(proc(0));
  sim.spawn(proc(1));
  sim.run();
  // Cap rates sum to 1.6x capacity: the second arrival moves the first
  // flow from its cap into the shared 50/50 regime, so it is not fast.
  // The first arrival and the joint departure touch nobody else.
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_EQ(res.full_reallocs(), 0u);
  EXPECT_EQ(res.sparse_events(), 3u);
  EXPECT_EQ(res.fast_reallocs(), 2u);
}

}  // namespace
}  // namespace avf::sim
