// Tests for the incremental fluid engine and its accounting.
//
// The sharing semantics are pinned down by test_fluid_resource.cpp; here
// we check three contracts of the incremental allocator:
//
//  1. Equivalence — a churning workload completes at the same times under
//     the engine as under the explicit water-filling oracle
//     (water_filling_oracle.hpp).  The engine is an *algorithmic* change
//     only.
//  2. Compensated accounting — after churning 10k flows through the
//     resource, total_served() matches both the per-owner sums and the
//     exact amount of work submitted to ulp-scale precision (Neumaier
//     summation; naive accumulation drifts visibly at this volume).
//  3. Progress at a large virtual clock — the fair-head event never
//     refires at the same timestamp once GPS virtual time is big enough
//     that its ulp dwarfs a flow's residual work.
#include "sim/fluid_resource.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "water_filling_oracle.hpp"

namespace avf::sim {
namespace {

/// Mixed capped/fair flows with staggered arrivals, mid-flight capacity
/// changes, and varying weights — every regime transition the incremental
/// engine implements.  Runs on FluidResource or the water-filling oracle
/// and returns per-flow completion times.
template <typename Resource>
std::vector<double> run_churn_workload(int flows) {
  Simulator sim;
  Resource res(sim, 100.0);
  std::vector<double> done(static_cast<std::size_t>(flows), -1.0);
  auto proc = [&](int i) -> Task<> {
    co_await sim.delay(0.003 * (i % 41));
    double cap = (i % 3 == 0) ? 0.02 : 1.0;   // a third cap-limited
    double weight = 1.0 + (i % 4);
    co_await res.consume(2.0 + (i % 7), make_share_slot(cap, weight));
    done[static_cast<std::size_t>(i)] = sim.now();
  };
  for (int i = 0; i < flows; ++i) sim.spawn(proc(i));
  // Capacity wiggles force reallocation in whatever regime is active.
  sim.schedule(0.05, [&] { res.set_capacity(60.0); });
  sim.schedule(0.11, [&] { res.set_capacity(140.0); });
  sim.schedule(0.23, [&] { res.set_capacity(100.0); });
  sim.run();
  return done;
}

/// FluidResource with the oracle's constructor shape.
struct Engine : FluidResource {
  Engine(Simulator& sim, double capacity)
      : FluidResource(sim, "cpu", capacity) {}
};

TEST(FluidSparse, EngineMatchesWaterFillingOracleOnCompletionTimes) {
  // 512 flows also covers the population the former dense engine never
  // served (it handed over to the incremental one at 384).
  for (int flows : {96, 512}) {
    std::vector<double> engine = run_churn_workload<Engine>(flows);
    std::vector<double> oracle =
        run_churn_workload<testing::WaterFillingOracle>(flows);
    ASSERT_EQ(engine.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_GE(oracle[i], 0.0) << "flow " << i << " never completed";
      // Same fluid model, different algorithm: agreement to relative 1e-9
      // (the two accumulate rounding in different orders, so bit equality
      // is not the contract here).
      EXPECT_NEAR(engine[i], oracle[i], 1e-9 * oracle[i] + 1e-12)
          << flows << " flows, flow " << i;
    }
  }
}

TEST(FluidSparse, CompensatedServedMatchesPerOwnerSumsAfter10kFlows) {
  Simulator sim;
  FluidResource res(sim, "cpu", 1000.0);
  constexpr int kFlows = 10000;
  constexpr int kOwners = 16;
  std::vector<OwnerId> owners;
  owners.reserve(kOwners);
  for (int i = 0; i < kOwners; ++i) owners.push_back(sim.new_owner_id());

  double submitted = 0.0;
  auto proc = [&](int i, double amount) -> Task<> {
    co_await sim.delay(0.0007 * (i % 997));
    double cap = (i % 5 == 0) ? 0.001 : 1.0;
    double weight = 1.0 + (i % 3);
    co_await res.consume(amount, make_share_slot(cap, weight),
                         owners[static_cast<std::size_t>(i) % kOwners]);
  };
  for (int i = 0; i < kFlows; ++i) {
    double amount = 0.25 + (i % 13) * 0.125;
    submitted += amount;
    sim.spawn(proc(i, amount));
  }
  sim.run();

  ASSERT_GT(res.sparse_events(), 0u);
  EXPECT_GT(res.boundary_crossings(), 0u);
  double owner_sum = 0.0;
  for (OwnerId owner : owners) owner_sum += res.served(owner);
  // Ulp-scale agreement at ~10k-term volume: this is what the Neumaier
  // compensation buys (a naive running sum drifts orders of magnitude
  // further after this many add/remove cycles).
  EXPECT_NEAR(res.total_served(), owner_sum, 1e-9 * owner_sum);
  EXPECT_NEAR(res.total_served(), submitted, 1e-9 * submitted);
  EXPECT_EQ(res.active_requests(), 0u);
}

TEST(FluidSparse, FairHeadAdvancesTheClockAtLargeVirtualTime) {
  // 400 uncapped flows share one CPU, each consuming ten ~3e7-per-weight
  // chunks back to back, so GPS virtual time climbs to ~3e8.  There its
  // ulp (~6e-8) times a flow's weight is comparable to the completion
  // epsilon: a fair-head test phrased in `remaining` disagrees with the
  // virtual distance the event was scheduled from, and the event refires
  // at the same timestamp forever.  Stepping under a budget turns such a
  // respin into a failure instead of a hang.
  Simulator sim;
  FluidResource res(sim, "cpu", 450e6);
  constexpr int kFlows = 400;
  constexpr int kRounds = 10;
  int completed = 0;
  auto proc = [&](int i) -> Task<> {
    double weight = 1.0 + (i % 5);
    for (int k = 0; k < kRounds; ++k) {
      double amount = weight * 3e7 * (1.0 + 0.001 * ((i * 7 + k * 13) % 97));
      co_await res.consume(amount, make_share_slot(1.0, weight));
    }
    ++completed;
  };
  for (int i = 0; i < kFlows; ++i) sim.spawn(proc(i));

  constexpr std::uint64_t kBudget = 100000;  // ~6k events needed
  std::uint64_t steps = 0;
  while (steps < kBudget && sim.step()) ++steps;
  ASSERT_LT(steps, kBudget) << "event budget exhausted at t=" << sim.now()
                            << ": an event is refiring without advancing "
                               "the clock";
  // ~3.8e11 ops of work in all at 450e6 ops/s: the clock ends near 840 s.
  EXPECT_GT(sim.now(), 800.0);
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(res.active_requests(), 0u);
}

TEST(FluidSparse, SlotChangedOnUnusedSlotIsCounterOnlyNoop) {
  Simulator sim;
  FluidResource res(sim, "cpu", 100.0);
  ShareSlotPtr idle_slot = make_share_slot(0.5);
  res.slot_changed(idle_slot);
  EXPECT_EQ(res.noop_slot_reallocs(), 1u);
  EXPECT_EQ(res.full_reallocs(), 0u);
  EXPECT_EQ(res.fast_reallocs(), 0u);
}

}  // namespace
}  // namespace avf::sim
