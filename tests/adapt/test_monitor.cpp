#include "adapt/monitor.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace avf::adapt {
namespace {

MonitoringAgent::Options opts(double window = 2.0, double threshold = 0.25,
                              int consecutive = 2) {
  MonitoringAgent::Options o;
  o.window = window;
  o.trigger_threshold = threshold;
  o.consecutive_required = consecutive;
  return o;
}

// The id of "cpu_share", the first axis of every agent that lists it.
constexpr std::size_t kCpu = 0;

TEST(Monitor, EstimateIsWindowMean) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts());
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.4); });
  sim.schedule(0.2, [&] { agent.observe(kCpu, 0.6); });
  sim.run();
  auto e = agent.estimate(kCpu);
  ASSERT_TRUE(e);
  EXPECT_DOUBLE_EQ(*e, 0.5);
}

TEST(Monitor, NoSamplesMeansNoEstimate) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"});
  EXPECT_FALSE(agent.estimate(kCpu).has_value());
  EXPECT_EQ(agent.axis_id("cpu_share"), kCpu);
  EXPECT_THROW((void)agent.axis_id("bogus"), std::out_of_range);
}

TEST(Monitor, StaleSamplesExpire) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(1.0));
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.5); });
  sim.run();
  EXPECT_TRUE(agent.estimate(kCpu).has_value());
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_FALSE(agent.estimate(kCpu).has_value());
}

TEST(Monitor, StaleBurstDoesNotSkewEstimate) {
  // Regression: TimeWindow evicts relative to the newest *sample*, so a
  // burst of old samples behind one fresh sample stays in the deque.  The
  // estimate must average only samples in [now - window, now] — previously
  // the whole deque was averaged whenever the last sample was fresh.
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0));
  sim.schedule(0.1, [&] {
    for (int i = 0; i < 10; ++i) agent.observe(kCpu, 10.0);
  });
  sim.schedule(1.0, [&] { agent.observe(kCpu, 1.0); });
  // Advance to t=2.5: the burst (age 2.4) is stale, the fresh sample (age
  // 1.5) is in-window.  All 11 samples are still in the deque.
  sim.schedule(2.5, [] {});
  sim.run();
  auto e = agent.estimate(kCpu);
  ASSERT_TRUE(e);
  EXPECT_DOUBLE_EQ(*e, 1.0);
}

TEST(Monitor, AllSamplesStaleMeansNoEstimate) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(1.0));
  sim.schedule(0.1, [&] {
    agent.observe(kCpu, 0.5);
    agent.observe(kCpu, 0.7);
  });
  sim.schedule(3.0, [] {});
  sim.run();
  EXPECT_FALSE(agent.estimate(kCpu).has_value());
}

TEST(Monitor, EstimatesFallBackToBaseline) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share", "net_bps"});
  agent.set_baseline({0.9, 500e3});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.4); });
  sim.run();
  std::vector<double> estimates;
  agent.estimates_into(estimates);
  EXPECT_DOUBLE_EQ(estimates[0], 0.4);
  EXPECT_DOUBLE_EQ(estimates[1], 500e3);  // no net samples yet
}

TEST(Monitor, TriggersAfterConsecutiveDeviations) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0, 0.25, 2));
  agent.set_baseline({0.9});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.4); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());  // first out-of-range check
  EXPECT_TRUE(agent.check_triggered());   // second consecutive -> trigger
  EXPECT_EQ(agent.triggers(), 1u);
  // Counter resets after firing.
  EXPECT_FALSE(agent.check_triggered());
}

TEST(Monitor, InRangeResetsHysteresisCounter) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(10.0, 0.25, 2));
  agent.set_baseline({0.9});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.4); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());
  // Recovery: estimate returns to baseline (fresh samples dominate mean).
  sim.schedule(0.1, [&] {
    for (int i = 0; i < 50; ++i) agent.observe(kCpu, 0.9);
  });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());
  EXPECT_FALSE(agent.check_triggered());  // counter was reset, no trigger
  EXPECT_EQ(agent.triggers(), 0u);
}

TEST(Monitor, SmallDeviationsNeverTrigger) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0, 0.25, 1));
  agent.set_baseline({0.5});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.55); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());
}

TEST(Monitor, BaselineDimensionChecked) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"a", "b"});
  EXPECT_THROW(agent.set_baseline({1.0}), std::invalid_argument);
  EXPECT_THROW(MonitoringAgent(sim, {}), std::invalid_argument);
}

class MonitorThresholds : public ::testing::TestWithParam<double> {};

TEST_P(MonitorThresholds, TriggerOnlyBeyondThreshold) {
  double threshold = GetParam();
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"x"}, opts(2.0, threshold, 1));
  const std::size_t x = agent.axis_id("x");
  agent.set_baseline({1.0});
  sim.schedule(0.1, [&] { agent.observe(x, 1.0 + threshold * 0.9); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());
  sim.schedule(0.1, [&] {
    for (int i = 0; i < 50; ++i) agent.observe(x, 1.0 + threshold * 1.5);
  });
  sim.run();
  EXPECT_TRUE(agent.check_triggered());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MonitorThresholds,
                         ::testing::Values(0.1, 0.25, 0.5));


// --- check_would_noop: the change-driven-tick skip proof ------------------

TEST(Monitor, CheckWouldNoopAfterQuietInRangeCheck) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0, 0.25, 2));
  agent.set_baseline({0.5});
  // Never true before any check: there is no outcome to repeat.
  EXPECT_FALSE(agent.check_would_noop());
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.5); });
  sim.run();
  EXPECT_FALSE(agent.check_would_noop());  // observation since (no check yet)
  EXPECT_FALSE(agent.check_triggered());   // in range
  // Nothing changed: a re-check is provably the same in-range no-op, and
  // actually re-checking preserves the proof.
  EXPECT_TRUE(agent.check_would_noop());
  EXPECT_FALSE(agent.check_triggered());
  EXPECT_TRUE(agent.check_would_noop());
}

TEST(Monitor, CheckWouldNoopFalseAfterObserveOrBaseline) {
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0, 0.25, 2));
  agent.set_baseline({0.5});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.5); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());
  ASSERT_TRUE(agent.check_would_noop());
  // A new observation is new information: the proof no longer holds.
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.5); });
  sim.run();
  EXPECT_FALSE(agent.check_would_noop());
  EXPECT_FALSE(agent.check_triggered());
  ASSERT_TRUE(agent.check_would_noop());
  // So is a re-anchored baseline.
  agent.set_baseline({0.5});
  EXPECT_FALSE(agent.check_would_noop());
}

TEST(Monitor, CheckWouldNoopFalseAfterOutOfRangeCheck) {
  // Out-of-range checks mutate the consecutive counter, so they can never
  // be skipped — even with no new observations.
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(2.0, 0.25, 3));
  agent.set_baseline({0.9});
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.4); });
  sim.run();
  EXPECT_FALSE(agent.check_triggered());  // out of range, counter at 1
  EXPECT_FALSE(agent.check_would_noop());
  EXPECT_FALSE(agent.check_triggered());  // counter at 2
  EXPECT_FALSE(agent.check_would_noop());
  EXPECT_TRUE(agent.check_triggered());   // fires
}

TEST(Monitor, CheckWouldNoopFalseWhenSuffixAgesOut) {
  // The proof requires the last check's oldest qualifying sample to still
  // be inside the window: once it ages past the cutoff the windowed mean
  // changes even though nothing new was observed.
  sim::Simulator sim;
  MonitoringAgent agent(sim, {"cpu_share"}, opts(1.0, 0.25, 2));
  sim.schedule(0.1, [&] { agent.observe(kCpu, 0.2); });
  sim.schedule(0.5, [&] { agent.observe(kCpu, 0.8); });
  sim.schedule(0.6, [] {});
  sim.run();
  agent.set_baseline({0.5});
  EXPECT_FALSE(agent.check_triggered());  // mean 0.5, in range
  EXPECT_TRUE(agent.check_would_noop());  // oldest sample (0.1) in window
  // Advance past 1.1: the 0.1 sample leaves the window, the mean is now
  // 0.8, and the proof must withdraw (the next check deviates by 60%).
  sim.schedule(0.6, [] {});
  sim.run();
  EXPECT_FALSE(agent.check_would_noop());
  EXPECT_FALSE(agent.check_triggered());  // out of range, counter at 1
  EXPECT_TRUE(agent.check_triggered());
}

}  // namespace
}  // namespace avf::adapt
