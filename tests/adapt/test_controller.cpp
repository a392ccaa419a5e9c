#include "adapt/controller.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace avf::adapt {
namespace {

using perfdb::PerfDatabase;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;

// The id of "bw", the one axis of every monitor here.
constexpr std::size_t kBw = 0;

struct Rig {
  sim::Simulator sim;
  tunable::AppSpec spec = make_spec();
  PerfDatabase db = make_db();
  ResourceScheduler scheduler{db, {minimize("time")}};
  MonitoringAgent monitor{sim, {"bw"}, monitor_opts()};
  SteeringAgent steering{spec, cfg(0)};

  static tunable::AppSpec make_spec() {
    tunable::AppSpec spec("demo");
    spec.space().add_parameter("mode", {0, 1});
    spec.metrics().add("time", Direction::kLowerBetter);
    spec.add_resource_axis("bw");
    return spec;
  }

  static ConfigPoint cfg(int mode) {
    ConfigPoint p;
    p.set("mode", mode);
    return p;
  }

  static QosVector q(double time) {
    QosVector out;
    out.set("time", time);
    return out;
  }

  static MonitoringAgent::Options monitor_opts() {
    MonitoringAgent::Options o;
    o.window = 2.0;
    o.trigger_threshold = 0.25;
    o.consecutive_required = 1;
    return o;
  }

  /// mode 0 wins at high bandwidth, mode 1 at low.
  static PerfDatabase make_db() {
    MetricSchema s;
    s.add("time", Direction::kLowerBetter);
    PerfDatabase db({"bw"}, s);
    db.insert(cfg(0), {100.0}, q(50.0));
    db.insert(cfg(0), {1000.0}, q(5.0));
    db.insert(cfg(1), {100.0}, q(20.0));
    db.insert(cfg(1), {1000.0}, q(15.0));
    return db;
  }
};

TEST(Controller, ConfigureSelectsInitialConfig) {
  Rig rig;
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering);
  ConfigPoint chosen = controller.configure({1000.0});
  EXPECT_EQ(chosen, Rig::cfg(0));
  EXPECT_EQ(rig.steering.active(), Rig::cfg(0));
  EXPECT_EQ(rig.monitor.baseline(), (std::vector<double>{1000.0}));
}

TEST(Controller, AdaptsWhenMonitorDetectsChange) {
  Rig rig;
  AdaptationController::Options options;
  options.check_interval = 0.5;
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering, options);
  controller.configure({1000.0});
  controller.start();
  // Bandwidth collapses at t=2.
  rig.sim.schedule(2.0, [&] {
    for (int i = 0; i < 10; ++i) rig.monitor.observe(kBw, 100.0);
  });
  rig.sim.schedule(5.0, [&] { controller.stop(); });
  rig.sim.run();

  ASSERT_EQ(controller.adaptations().size(), 1u);
  const auto& event = controller.adaptations()[0];
  EXPECT_EQ(event.from, Rig::cfg(0));
  EXPECT_EQ(event.to, Rig::cfg(1));
  EXPECT_GE(event.time, 2.0);
  // Steering has the change staged; the application applies it.
  EXPECT_TRUE(rig.steering.has_pending());
  rig.steering.apply_pending();
  EXPECT_EQ(rig.steering.active(), Rig::cfg(1));
}

TEST(Controller, NoAdaptationWithoutResourceChange) {
  Rig rig;
  AdaptationController::Options options;
  options.check_interval = 0.5;
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering, options);
  controller.configure({1000.0});
  controller.start();
  rig.sim.schedule(1.0, [&] {
    for (int i = 0; i < 5; ++i) rig.monitor.observe(kBw, 980.0);
  });
  rig.sim.schedule(4.0, [&] { controller.stop(); });
  rig.sim.run();
  EXPECT_TRUE(controller.adaptations().empty());
  EXPECT_GE(controller.checks(), 7u);
}

TEST(Controller, BaselineReanchorsAfterTrigger) {
  Rig rig;
  AdaptationController::Options options;
  options.check_interval = 0.5;
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering, options);
  controller.configure({1000.0});
  controller.start();
  rig.sim.schedule(1.0, [&] {
    for (int i = 0; i < 10; ++i) rig.monitor.observe(kBw, 100.0);
  });
  rig.sim.schedule(6.0, [&] { controller.stop(); });
  rig.sim.run();
  // The sustained 100 bw reading causes exactly one adaptation, not one
  // per check (the baseline re-anchors).
  EXPECT_EQ(controller.adaptations().size(), 1u);
}

TEST(Controller, ConfigureThrowsOnEmptyDatabase) {
  Rig rig;
  MetricSchema s;
  s.add("time", Direction::kLowerBetter);
  PerfDatabase empty({"bw"}, s);
  ResourceScheduler scheduler(empty, {minimize("time")});
  AdaptationController controller(rig.sim, scheduler, rig.monitor,
                                  rig.steering);
  EXPECT_THROW(controller.configure({1000.0}), std::runtime_error);
  // Nothing was staged or applied on the failed path.
  EXPECT_FALSE(rig.steering.has_pending());
  EXPECT_EQ(rig.steering.active(), Rig::cfg(0));
}

TEST(Controller, ConfigureFallsBackToBestEffortWhenNothingSatisfies) {
  Rig rig;
  UserPreference strict;
  strict.name = "unreachable";
  strict.constraints.push_back({"time", 0.0, 1.0});  // no config gets close
  strict.objective_metric = "time";
  strict.maximize = false;
  ResourceScheduler scheduler(rig.db, {strict});
  AdaptationController controller(rig.sim, scheduler, rig.monitor,
                                  rig.steering);
  // At bw=100 the predictions are 50 (mode 0) and 20 (mode 1): neither
  // satisfies time <= 1, so the last preference degrades to best effort
  // and picks the best objective value anyway.
  ConfigPoint chosen = controller.configure({100.0});
  EXPECT_EQ(chosen, Rig::cfg(1));
  EXPECT_EQ(rig.steering.active(), Rig::cfg(1));
}

TEST(Controller, StaleStagedRequestWithdrawnWhenDecisionReaffirmsActive) {
  // Regression: a change staged under degraded estimates but never applied
  // (the application didn't reach a task boundary) must be withdrawn when a
  // later trigger decides the active configuration is already right —
  // otherwise the stale request installs at the next boundary and the
  // system parks in a configuration nothing ever decided on purpose.
  Rig rig;
  MonitoringAgent::Options mopts;
  mopts.window = 0.5;
  mopts.trigger_threshold = 0.25;
  mopts.consecutive_required = 1;
  MonitoringAgent monitor(rig.sim, {"bw"}, mopts);
  AdaptationController::Options options;
  options.check_interval = 0.5;
  AdaptationController controller(rig.sim, rig.scheduler, monitor,
                                  rig.steering, options);
  controller.configure({1000.0});
  controller.start();
  // Collapse: the 1.5s check stages mode 1 (never applied by the app).
  rig.sim.schedule(1.2, [&] {
    for (int i = 0; i < 5; ++i) monitor.observe(kBw, 100.0);
  });
  // Full recovery before the 2.0s check: its decision is the still-active
  // mode 0, which must also cancel the staged mode 1.
  rig.sim.schedule(1.7, [&] {
    for (int i = 0; i < 5; ++i) monitor.observe(kBw, 1000.0);
  });
  rig.sim.schedule(2.2, [&] { controller.stop(); });
  rig.sim.run();

  ASSERT_EQ(controller.adaptations().size(), 1u);
  EXPECT_EQ(controller.adaptations()[0].to, Rig::cfg(1));
  EXPECT_FALSE(rig.steering.has_pending());
  EXPECT_EQ(rig.steering.active(), Rig::cfg(0));
}

TEST(Controller, ConstructionRejectsSpecWithLintErrors) {
  // The steering agent holds a reference to the spec, so planting the
  // defect after Rig construction is visible to the controller's startup
  // validation.
  Rig rig;
  rig.spec.add_task({.name = "broken",
                     .params = {"nonesuch"},
                     .resources = {},
                     .metrics = {},
                     .guard = nullptr});
  try {
    AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                    rig.steering);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("failed validation"), std::string::npos) << what;
    EXPECT_NE(what.find("ref.undefined-param"), std::string::npos) << what;
  }
}

TEST(Controller, ConstructionRejectsPreferenceOnUndeclaredMetric) {
  // The scheduler's own constructor checks objectives against the database
  // schema, but a *constraint* on an undeclared metric only the spec lint
  // catches.
  Rig rig;
  UserPreference pref = minimize("time");
  pref.constraints.push_back({.metric = "undeclared_metric", .max = 1.0});
  ResourceScheduler scheduler(rig.db, {pref});
  try {
    AdaptationController controller(rig.sim, scheduler, rig.monitor,
                                    rig.steering);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pref.undefined-metric"),
              std::string::npos)
        << e.what();
  }
}

TEST(Controller, ValidationOffSwitchSkipsLint) {
  Rig rig;
  rig.spec.add_task({.name = "broken",
                     .params = {"nonesuch"},
                     .resources = {},
                     .metrics = {},
                     .guard = nullptr});
  AdaptationController::Options options;
  options.validate_spec = false;
  // Degenerate rigs can opt out; construction succeeds.
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering, options);
  EXPECT_EQ(controller.configure({1000.0}), Rig::cfg(0));
}

TEST(Controller, WarningsDoNotBlockConstruction) {
  // The Rig's database fully profiles the space; an extra unprofiled-config
  // warning (db.unprofiled-config) must log, not throw.
  Rig rig;
  rig.spec.space().add_guard("all pass",
                             [](const ConfigPoint&) { return true; });
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering);
  EXPECT_EQ(controller.configure({1000.0}), Rig::cfg(0));
}

TEST(Controller, RejectsBadInterval) {
  Rig rig;
  AdaptationController::Options options;
  options.check_interval = 0.0;
  EXPECT_THROW(AdaptationController(rig.sim, rig.scheduler, rig.monitor,
                                    rig.steering, options),
               std::invalid_argument);
}

TEST(Controller, StartIsIdempotent) {
  Rig rig;
  AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                  rig.steering);
  controller.configure({1000.0});
  controller.start();
  controller.start();
  EXPECT_TRUE(controller.running());
  rig.sim.schedule(1.0, [&] { controller.stop(); });
  rig.sim.run();
  EXPECT_FALSE(controller.running());
}


TEST(Controller, ChangeDrivenTicksSkipQuietChecksIdentically) {
  // Two identical rigs under the same observation schedule: skipping
  // provably-no-op ticks must not change a single adaptation decision —
  // only how much work quiet ticks cost (ticks_skipped counts them).
  auto run = [](bool change_driven) {
    Rig rig;
    AdaptationController::Options options;
    options.check_interval = 0.5;
    options.change_driven_ticks = change_driven;
    AdaptationController controller(rig.sim, rig.scheduler, rig.monitor,
                                    rig.steering, options);
    controller.configure({1000.0});
    controller.start();
    // Sparse observations (every 1.25 s) leave tick pairs with no new
    // information in between; a collapse at t=4 forces an adaptation.
    for (int i = 0; i < 3; ++i) {
      rig.sim.schedule(0.4 + 1.25 * i, [&rig] {
        rig.monitor.observe(kBw, 1000.0);
      });
    }
    rig.sim.schedule(4.0, [&rig] {
      for (int i = 0; i < 10; ++i) rig.monitor.observe(kBw, 100.0);
    });
    rig.sim.schedule(6.0, [&controller] { controller.stop(); });
    rig.sim.run();
    struct Out {
      std::vector<AdaptationController::AdaptationEvent> adaptations;
      std::size_t checks;
      std::size_t skipped;
    };
    return Out{controller.adaptations(), controller.checks(),
               controller.ticks_skipped()};
  };

  auto baseline = run(false);
  auto skipping = run(true);
  EXPECT_EQ(baseline.skipped, 0u);
  EXPECT_GT(skipping.skipped, 0u);
  EXPECT_EQ(baseline.checks, skipping.checks);  // skipped ticks still count
  ASSERT_EQ(baseline.adaptations.size(), skipping.adaptations.size());
  for (std::size_t i = 0; i < baseline.adaptations.size(); ++i) {
    EXPECT_EQ(baseline.adaptations[i].time, skipping.adaptations[i].time);
    EXPECT_EQ(baseline.adaptations[i].from, skipping.adaptations[i].from);
    EXPECT_EQ(baseline.adaptations[i].to, skipping.adaptations[i].to);
    EXPECT_EQ(baseline.adaptations[i].estimates,
              skipping.adaptations[i].estimates);
  }
  ASSERT_FALSE(skipping.adaptations.empty());
}

}  // namespace
}  // namespace avf::adapt
