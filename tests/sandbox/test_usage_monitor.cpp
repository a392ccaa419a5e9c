#include "sandbox/usage_monitor.hpp"

#include <gtest/gtest.h>

#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sandbox {
namespace {

using sim::Task;

TEST(UsageMonitor, TracksFluidShare) {
  sim::Simulator sim;
  sim::Host host(sim, "h", 100e6);
  Sandbox::Options opts;
  opts.cpu_share = 0.6;
  Sandbox box(host, "app", opts);
  UsageMonitor mon(sim, host.cpu(), box.owner(), 0.5);
  mon.start();
  auto proc = [&]() -> Task<> { co_await box.compute(100e6 * 3.0); };
  sim.spawn(proc());
  sim.run_until(4.0);
  mon.stop();
  ASSERT_GE(mon.samples().size(), 8u);
  // While the process is computing (first ~5 s of work at 60%), every
  // window reads 60%.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(mon.samples()[i].utilization, 0.6, 1e-9);
  }
}

TEST(UsageMonitor, SeesShareSteps) {
  // The Figure 3(a) scenario in miniature: 80% -> 40% -> 60%.
  sim::Simulator sim;
  sim::Host host(sim, "h", 100e6);
  Sandbox::Options opts;
  opts.cpu_share = 0.8;
  Sandbox box(host, "app", opts);
  UsageMonitor mon(sim, host.cpu(), box.owner(), 1.0);
  mon.start();
  auto proc = [&]() -> Task<> { co_await box.compute(100e6 * 100.0); };
  sim.spawn(proc());
  sim.schedule(20.0, [&] { box.set_cpu_share(0.4); });
  sim.schedule(50.0, [&] { box.set_cpu_share(0.6); });
  sim.run_until(70.0);
  EXPECT_NEAR(mon.mean_utilization(0.0, 20.0), 0.8, 1e-6);
  EXPECT_NEAR(mon.mean_utilization(20.0, 50.0), 0.4, 1e-6);
  EXPECT_NEAR(mon.mean_utilization(50.0, 70.0), 0.6, 1e-6);
}

TEST(UsageMonitor, IdleProcessReadsZero) {
  sim::Simulator sim;
  sim::Host host(sim, "h", 100e6);
  Sandbox::Options opts;
  Sandbox box(host, "app", opts);
  UsageMonitor mon(sim, host.cpu(), box.owner(), 0.5);
  mon.start();
  sim.run_until(2.0);
  for (const auto& s : mon.samples()) {
    EXPECT_EQ(s.utilization, 0.0);
  }
}

TEST(UsageMonitor, StartIsIdempotentAndStopHalts) {
  sim::Simulator sim;
  sim::Host host(sim, "h", 100e6);
  UsageMonitor mon(sim, host.cpu(), 1, 0.5);
  mon.start();
  mon.start();
  sim.run_until(1.6);
  std::size_t n = mon.samples().size();
  EXPECT_EQ(n, 3u);  // single sampling chain despite double start
  mon.stop();
  sim.run_until(5.0);
  EXPECT_EQ(mon.samples().size(), n);
}

TEST(UsageMonitor, RejectsBadInterval) {
  sim::Simulator sim;
  sim::Host host(sim, "h", 100e6);
  EXPECT_THROW(UsageMonitor(sim, host.cpu(), 1, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace avf::sandbox
