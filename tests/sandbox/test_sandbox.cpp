#include "sandbox/sandbox.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sandbox/schedule.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace avf::sandbox {
namespace {

using sim::Task;

constexpr double kSpeed = 450e6;  // "Pentium II 450"-class host

struct Rig {
  sim::Simulator sim;
  sim::Host host{sim, "h", kSpeed};
};

/// Time to run `ops` under a sandbox configured by `opts`.
double timed_compute(Rig& rig, const Sandbox::Options& opts, double ops) {
  Sandbox box(rig.host, "app", opts);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await box.compute(ops);
    done = rig.sim.now();
  };
  rig.sim.spawn(proc());
  rig.sim.run();
  return done;
}

TEST(SandboxFluid, ExactShareWhenAlone) {
  Rig rig;
  Sandbox::Options opts;
  opts.cpu_share = 0.4;
  // 1 s of full-speed work at 40% -> 2.5 s.
  EXPECT_NEAR(timed_compute(rig, opts, kSpeed), 2.5, 1e-9);
}

TEST(SandboxFluid, ShareChangeTakesEffectImmediately) {
  Rig rig;
  Sandbox::Options opts;
  opts.cpu_share = 0.8;
  Sandbox box(rig.host, "app", opts);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await box.compute(kSpeed);  // 1 s of full-speed work
    done = rig.sim.now();
  };
  rig.sim.spawn(proc());
  rig.sim.schedule(0.5, [&] { box.set_cpu_share(0.2); });
  rig.sim.run();
  // 0.5 s at 80% = 0.4 s-equivalents done; 0.6 left at 20% -> 3 s more.
  EXPECT_NEAR(done, 0.5 + 0.6 / 0.2, 1e-9);
}

TEST(SandboxFluid, TwoSandboxesSplitByShare) {
  Rig rig;
  Sandbox::Options a_opts, b_opts;
  a_opts.cpu_share = 0.6;
  b_opts.cpu_share = 0.3;
  Sandbox a(rig.host, "a", a_opts);
  Sandbox b(rig.host, "b", b_opts);
  double a_done = -1.0, b_done = -1.0;
  auto pa = [&]() -> Task<> {
    co_await a.compute(kSpeed * 0.6);
    a_done = rig.sim.now();
  };
  auto pb = [&]() -> Task<> {
    co_await b.compute(kSpeed * 0.3);
    b_done = rig.sim.now();
  };
  rig.sim.spawn(pa());
  rig.sim.spawn(pb());
  rig.sim.run();
  // Sum of caps 0.9 <= 1: both get exactly their share -> both take 1 s.
  EXPECT_NEAR(a_done, 1.0, 1e-9);
  EXPECT_NEAR(b_done, 1.0, 1e-9);
}

TEST(SandboxQuantized, AverageConvergesToShare) {
  Rig rig;
  Sandbox::Options opts;
  opts.cpu_share = 0.4;
  opts.cpu_enforcement = CpuEnforcement::kQuantized;
  opts.quantum = 0.005;
  Sandbox box(rig.host, "app", opts);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await box.compute(kSpeed * 2.0);  // 2 s of full-speed work
    done = rig.sim.now();
  };
  rig.sim.spawn(proc());
  rig.sim.run();
  // Expected 2/0.4 = 5 s, within quantization error.
  EXPECT_NEAR(done, 5.0, 0.1);
  EXPECT_GT(done, 4.5);
}

TEST(SandboxQuantized, UtilizationJitterIsBounded) {
  Rig rig;
  Sandbox::Options opts;
  opts.cpu_share = 0.5;
  opts.cpu_enforcement = CpuEnforcement::kQuantized;
  opts.quantum = 0.005;
  Sandbox box(rig.host, "app", opts);
  auto proc = [&]() -> Task<> { co_await box.compute(kSpeed * 5.0); };
  rig.sim.spawn(proc());
  // Sample served ops each 100 ms; each window's utilization must stay
  // within quantization distance of the 50% target.
  double prev = 0.0;
  bool ok = true;
  for (int i = 1; i <= 50; ++i) {
    rig.sim.run_until(0.1 * i);
    double served = box.cpu_served();
    double util = (served - prev) / 0.1 / kSpeed;
    if (util < 0.3 || util > 0.7) ok = false;
    prev = served;
    if (rig.sim.now() >= 10.0) break;
  }
  EXPECT_TRUE(ok);
}

TEST(SandboxNet, BandwidthCapThrottlesEndpoint) {
  Rig rig;
  sim::Host other(rig.sim, "srv", kSpeed);
  sim::Link link(rig.sim, "l", util::mbps(12.5), 0.0);
  sim::Channel ch(link);
  Sandbox::Options opts;
  opts.net_bandwidth_bps = util::kbps(100);
  Sandbox box(rig.host, "app", opts);
  box.attach_endpoint(ch.a());
  double sent = -1.0;
  auto proc = [&]() -> Task<> {
    sim::Message m;
    m.payload.assign(100000 - sim::kMessageHeaderBytes, 1);
    co_await ch.a().send(std::move(m));
    sent = rig.sim.now();
  };
  rig.sim.spawn(proc());
  rig.sim.run();
  EXPECT_NEAR(sent, 1.0, 1e-6);  // 100 KB at 100 KBps
}

TEST(SandboxNet, BandwidthChangeMidTransfer) {
  Rig rig;
  sim::Link link(rig.sim, "l", util::mbps(12.5), 0.0);
  sim::Channel ch(link);
  Sandbox::Options opts;
  opts.net_bandwidth_bps = util::kbps(500);
  Sandbox box(rig.host, "app", opts);
  box.attach_endpoint(ch.a());
  double sent = -1.0;
  auto proc = [&]() -> Task<> {
    sim::Message m;
    m.payload.assign(500000 - sim::kMessageHeaderBytes, 1);
    co_await ch.a().send(std::move(m));
    sent = rig.sim.now();
  };
  rig.sim.spawn(proc());
  rig.sim.schedule(0.5, [&] { box.set_net_bandwidth(util::kbps(50)); });
  rig.sim.run();
  // 250 KB in 0.5 s, remaining 250 KB at 50 KBps -> 5 s.
  EXPECT_NEAR(sent, 5.5, 1e-6);
}

// Every limit is checked with a negated comparison, so NaN, which fails
// every comparison, is rejected too; a zero rate would make a kDelayed send
// wait needed / 0.
TEST(Sandbox, RejectsInvalidConfig) {
  Rig rig;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Sandbox::Options& opts : std::vector<Sandbox::Options>{
           {.cpu_share = 0.0},
           {.cpu_share = 1.5},
           {.cpu_share = nan},
           {.net_bandwidth_bps = 0.0},
           {.net_bandwidth_bps = -5.0},
           {.net_bandwidth_bps = nan},
           {.quantum = 0.0},
           {.quantum = nan},
           {.net_burst_window = nan},
       }) {
    EXPECT_THROW(Sandbox(rig.host, "x", opts), std::invalid_argument);
  }

  Sandbox box(rig.host, "app", {.net_bandwidth_bps = 1000.0});
  for (double bps : {0.0, -5.0, nan}) {
    EXPECT_THROW(box.set_net_bandwidth(bps), std::invalid_argument) << bps;
  }
  EXPECT_THROW(box.set_cpu_share(nan), std::invalid_argument);
  EXPECT_EQ(box.net_bandwidth(), 1000.0);
  EXPECT_EQ(box.cpu_share(), 1.0);
}

TEST(SandboxSchedule, AppliesTimedChanges) {
  Rig rig;
  Sandbox::Options opts;
  opts.cpu_share = 0.8;
  Sandbox box(rig.host, "app", opts);
  apply_schedule(rig.sim, box,
                 {{.at = 1.0, .cpu_share = 0.4},
                  {.at = 2.0, .cpu_share = 0.6}});
  rig.sim.run_until(0.5);
  EXPECT_DOUBLE_EQ(box.cpu_share(), 0.8);
  rig.sim.run_until(1.5);
  EXPECT_DOUBLE_EQ(box.cpu_share(), 0.4);
  rig.sim.run_until(2.5);
  EXPECT_DOUBLE_EQ(box.cpu_share(), 0.6);
}

TEST(SandboxSchedule, PastChangesApplyImmediately) {
  Rig rig;
  Sandbox::Options opts;
  Sandbox box(rig.host, "app", opts);
  rig.sim.run_until(5.0);
  apply_schedule(rig.sim, box, {{.at = 1.0, .cpu_share = 0.3}});
  EXPECT_DOUBLE_EQ(box.cpu_share(), 0.3);
}

// The testbed-as-model property (paper Fig 4a): running work W under share s
// on a fast host takes the same time as running it on a host of speed
// s * fast_speed.
class EmulationFidelity : public ::testing::TestWithParam<double> {};

TEST_P(EmulationFidelity, ShareEmulatesSlowerMachine) {
  double ratio = GetParam();

  Rig testbed;
  Sandbox::Options opts;
  opts.cpu_share = ratio;
  double emulated = timed_compute(testbed, opts, kSpeed * 3.0);

  sim::Simulator sim2;
  sim::Host slow(sim2, "slow", kSpeed * ratio);
  Sandbox::Options full;
  Sandbox box(slow, "app", full);
  double physical = -1.0;
  auto proc = [&]() -> Task<> {
    co_await box.compute(kSpeed * 3.0);
    physical = sim2.now();
  };
  sim2.spawn(proc());
  sim2.run();

  EXPECT_NEAR(emulated, physical, physical * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SpeedRatios, EmulationFidelity,
                         ::testing::Values(200.0 / 450.0, 333.0 / 450.0, 0.5,
                                           0.25, 1.0));

}  // namespace
}  // namespace avf::sandbox
