// The invariant checkers must fire on constructed violations and stay
// silent on compliant histories — otherwise soak-run "0 violations" means
// nothing.
#include "testkit/invariants.hpp"

#include <gtest/gtest.h>

#include "adapt/monitor.hpp"
#include "adapt/scheduler.hpp"
#include "adapt/steering.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avf::testkit {
namespace {

using adapt::AdaptationController;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;

ConfigPoint cfg(int mode) {
  ConfigPoint p;
  p.set("mode", mode);
  return p;
}

tunable::AppSpec make_spec() {
  tunable::AppSpec spec("inv-demo");
  spec.space().add_parameter("mode", {0, 1});
  spec.metrics().add("time", Direction::kLowerBetter);
  spec.add_resource_axis("cpu_share");
  spec.add_resource_axis("net_bps");
  return spec;
}

QosVector q(double time) {
  QosVector out;
  out.set("time", time);
  return out;
}

/// mode 0 is fast at full CPU and terrible when starved; mode 1 is the
/// reverse, so the scheduler's winner flips with cpu_share.
perfdb::PerfDatabase make_db() {
  MetricSchema s;
  s.add("time", Direction::kLowerBetter);
  perfdb::PerfDatabase db({"cpu_share", "net_bps"}, s);
  for (double bw : {0.5e6, 1e6}) {
    db.insert(cfg(0), {0.1, bw}, q(10.0));
    db.insert(cfg(0), {1.0, bw}, q(1.0));
    db.insert(cfg(1), {0.1, bw}, q(3.0));
    db.insert(cfg(1), {1.0, bw}, q(2.0));
  }
  return db;
}

adapt::UserPreference bounded(double max_time) {
  adapt::UserPreference p;
  p.name = "bounded";
  p.constraints.push_back({"time", -1e300, max_time});
  p.objective_metric = "time";
  p.maximize = false;
  return p;
}

AdaptationController::AdaptationEvent event(double t, int to,
                                            std::vector<double> estimates,
                                            std::size_t pref) {
  return {t, cfg(1 - to), cfg(to), std::move(estimates), pref};
}

TEST(TransitionPointChecker, FlagsApplyOutsideBoundary) {
  sim::Simulator sim;
  tunable::AppSpec spec = make_spec();
  adapt::SteeringAgent steering(spec, cfg(0));
  InvariantLog log;
  TransitionPointChecker checker(sim, steering, log);

  steering.request(cfg(1));
  steering.apply_pending();  // no enter_boundary(): mid-task apply
  EXPECT_EQ(checker.applies_seen(), 1u);
  ASSERT_EQ(log.violations().size(), 1u);
  EXPECT_EQ(log.violations()[0].invariant, "transition-point");

  checker.enter_boundary();
  steering.request(cfg(0));
  steering.apply_pending();
  checker.leave_boundary();
  EXPECT_EQ(checker.applies_seen(), 2u);
  EXPECT_EQ(log.violations().size(), 1u);  // boundary apply is clean
}

TEST(TransitionPointChecker, ReleasesHookOnDestruction) {
  sim::Simulator sim;
  tunable::AppSpec spec = make_spec();
  adapt::SteeringAgent steering(spec, cfg(0));
  InvariantLog log;
  { TransitionPointChecker checker(sim, steering, log); }
  steering.request(cfg(1));
  steering.apply_pending();  // no checker anymore: must not crash or log
  EXPECT_TRUE(log.ok());
}

TEST(AdaptationEvents, AcceptsCompliantDecision) {
  perfdb::PerfDatabase db = make_db();
  adapt::PreferenceList prefs{bounded(1.5), adapt::minimize("time")};
  InvariantLog log;
  // cfg(0) at full CPU predicts time 1.0 <= 1.5: preference #0, legal.
  check_adaptation_events({event(1.0, 0, {1.0, 1e6}, 0)}, db, prefs, log);
  EXPECT_TRUE(log.ok()) << log.summary();
}

TEST(AdaptationEvents, FlagsConfigViolatingItsClaimedPreference) {
  perfdb::PerfDatabase db = make_db();
  adapt::PreferenceList prefs{bounded(1.5), adapt::minimize("time")};
  InvariantLog log;
  // cfg(1) predicts time 2.0 > 1.5 yet claims preference #0.
  check_adaptation_events({event(1.0, 1, {1.0, 1e6}, 0)}, db, prefs, log);
  ASSERT_EQ(log.violations().size(), 1u);
  EXPECT_EQ(log.violations()[0].invariant, "preference-order");
}

TEST(AdaptationEvents, FlagsFallThroughPastSatisfiablePreference) {
  perfdb::PerfDatabase db = make_db();
  adapt::PreferenceList prefs{bounded(1.5), adapt::minimize("time")};
  InvariantLog log;
  // Preference #1 is unconstrained so cfg(1) satisfies it, but #0 was
  // satisfiable (by cfg(0)) at these estimates — illegal fall-through.
  check_adaptation_events({event(1.0, 1, {1.0, 1e6}, 1)}, db, prefs, log);
  ASSERT_EQ(log.violations().size(), 1u);
  EXPECT_NE(log.violations()[0].detail.find("more preferred"),
            std::string::npos);
}

TEST(AdaptationEvents, BestEffortLegalOnlyWhenNothingSatisfies) {
  perfdb::PerfDatabase db = make_db();
  adapt::PreferenceList prefs{bounded(0.5)};
  InvariantLog log;
  // Nothing predicts time <= 0.5 anywhere: best-effort cfg(0) is legal.
  check_adaptation_events({event(1.0, 0, {1.0, 1e6}, 0)}, db, prefs, log);
  EXPECT_TRUE(log.ok()) << log.summary();

  adapt::PreferenceList reachable{bounded(1.2)};
  // cfg(0) satisfies time <= 1.2, so claiming best-effort cfg(1) is not.
  check_adaptation_events({event(2.0, 1, {1.0, 1e6}, 0)}, db, reachable, log);
  ASSERT_EQ(log.violations().size(), 1u);
  EXPECT_NE(log.violations()[0].detail.find("best-effort"),
            std::string::npos);
}

/// World with a link so the injector has a bandwidth ground truth.
struct AccuracyRig {
  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host& a = net.add_host("a", 450e6);
  sim::Host& b = net.add_host("b", 450e6);
  sim::Link& link = net.connect(a, b, 1e6, 0.005);
  adapt::MonitoringAgent monitor{sim,
                                 {"cpu_share", "net_bps"},
                                 {.window = 1.0, .trigger_threshold = 0.25,
                                  .consecutive_required = 1}};
  FaultInjector injector{{.sim = &sim, .link = &link}, 1};
  InvariantLog log;
  MonitorAccuracyChecker checker{
      sim, monitor, injector, log,
      {.tolerance = 0.10, .window = 1.0, .settle = 0.5}};

  void observe_both(double cpu, double bw) {
    monitor.observe(monitor.axis_id("cpu_share"), cpu);
    monitor.observe(monitor.axis_id("net_bps"), bw);
  }
};

TEST(MonitorAccuracy, PassesWhenEstimatesTrackTruth) {
  AccuracyRig rig;
  for (double t : {2.0, 2.5, 3.0}) {
    rig.sim.schedule_at(t, [&] { rig.observe_both(1.0, 1e6); });
  }
  rig.sim.schedule_at(3.0, [&] { rig.checker.probe(); });
  rig.sim.run();
  EXPECT_EQ(rig.checker.checked(), 2u);
  EXPECT_TRUE(rig.log.ok()) << rig.log.summary();
}

TEST(MonitorAccuracy, FlagsEstimateOutsideTolerance) {
  AccuracyRig rig;
  for (double t : {2.0, 2.5, 3.0}) {
    rig.sim.schedule_at(t, [&] { rig.observe_both(0.5, 1e6); });  // truth: 1.0
  }
  rig.sim.schedule_at(3.0, [&] { rig.checker.probe(); });
  rig.sim.run();
  ASSERT_EQ(rig.log.violations().size(), 1u);
  EXPECT_EQ(rig.log.violations()[0].invariant, "monitor-accuracy");
}

TEST(MonitorAccuracy, GatedUntilTruthStableForGuardPeriod) {
  AccuracyRig rig;
  rig.sim.schedule_at(1.0, [&] {
    rig.observe_both(0.2, 1e6);  // wildly off, but inside the guard
    rig.checker.probe();
  });
  rig.sim.run();
  EXPECT_EQ(rig.checker.checked(), 0u);
  EXPECT_TRUE(rig.log.ok());
}

TEST(MonitorAccuracy, BandwidthProbeSkippedDuringMailboxDisturbance) {
  AccuracyRig rig;
  Fault f;
  f.kind = FaultKind::kMailboxDrop;
  f.at = 2.0;
  f.until = 4.0;
  f.value = 0.5;
  rig.injector.arm({{f}});
  for (double t : {2.0, 2.5, 3.0}) {
    rig.sim.schedule_at(t, [&] { rig.observe_both(1.0, 0.2e6); });
  }
  rig.sim.schedule_at(3.0, [&] { rig.checker.probe(); });
  rig.sim.run();
  // Only the cpu axis was checked; the polluted bandwidth window is excused.
  EXPECT_EQ(rig.checker.checked(), 1u);
  EXPECT_TRUE(rig.log.ok()) << rig.log.summary();
}

struct ReconvergeRig {
  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host& a = net.add_host("a", 450e6);
  sim::Host& b = net.add_host("b", 450e6);
  sim::Link& link = net.connect(a, b, 1e6, 0.005);
  tunable::AppSpec spec = make_spec();
  perfdb::PerfDatabase db = make_db();
  adapt::ResourceScheduler scheduler{db, {adapt::minimize("time")}};
  FaultInjector injector{{.sim = &sim, .link = &link}, 1};
  InvariantLog log;

  // At truth {1.0, 1e6} the scheduler's winner is cfg(0) (time 1 < 2).
  void check(const adapt::SteeringAgent& steering, double end_time = 10.0,
             const std::vector<AdaptationController::AdaptationEvent>&
                 events = {}) {
    check_reconvergence(end_time, injector, scheduler, steering, events,
                        /*monitor_window=*/1.0, /*check_interval=*/0.25,
                        /*k_checks=*/4, log);
  }
};

TEST(Reconvergence, CleanWhenActiveIsFixedPointAndNothingPending) {
  ReconvergeRig rig;
  adapt::SteeringAgent steering(rig.spec, cfg(0));
  rig.check(steering);
  EXPECT_TRUE(rig.log.ok()) << rig.log.summary();
}

TEST(Reconvergence, FlagsNonFixedPointActiveConfig) {
  ReconvergeRig rig;
  adapt::SteeringAgent steering(rig.spec, cfg(1));
  rig.check(steering);
  ASSERT_EQ(rig.log.violations().size(), 1u);
  EXPECT_NE(rig.log.violations()[0].detail.find("not a fixed point"),
            std::string::npos);
}

TEST(Reconvergence, FlagsStagedChangeNeverApplied) {
  ReconvergeRig rig;
  adapt::SteeringAgent steering(rig.spec, cfg(0));
  steering.request(cfg(1));
  rig.check(steering);
  ASSERT_EQ(rig.log.violations().size(), 1u);
  EXPECT_NE(rig.log.violations()[0].detail.find("never applied"),
            std::string::npos);
}

TEST(Reconvergence, FlagsAdaptationAfterGracePeriod) {
  ReconvergeRig rig;
  adapt::SteeringAgent steering(rig.spec, cfg(0));
  // Faults clear at 0 (nothing armed); grace = 1.0 + 4 * 0.25 = 2.0.
  rig.check(steering, 10.0,
            {AdaptationController::AdaptationEvent{
                5.0, cfg(1), cfg(0), {1.0, 1e6}, 0}});
  ASSERT_EQ(rig.log.violations().size(), 1u);
  EXPECT_NE(rig.log.violations()[0].detail.find("after the grace period"),
            std::string::npos);
}

TEST(Reconvergence, SkippedWhenRunEndsInsideGracePeriod) {
  ReconvergeRig rig;
  adapt::SteeringAgent steering(rig.spec, cfg(1));  // would be a violation
  rig.check(steering, /*end_time=*/1.5);
  EXPECT_TRUE(rig.log.ok());
}

TEST(InvariantLog, SummaryTruncates) {
  InvariantLog log;
  for (int i = 0; i < 15; ++i) log.report(i, "x", "boom");
  EXPECT_NE(log.summary(10).find("and 5 more"), std::string::npos);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(InvariantLog{}.summary(), "all invariants held");
}

}  // namespace
}  // namespace avf::testkit
