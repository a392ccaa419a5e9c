// Network-limit enforcement tests: fluid link capping vs the paper's
// delayed-send mechanism (token bucket).  Both must converge to the same
// configured average bandwidth; delayed mode additionally allows bursts up
// to its window.
#include <gtest/gtest.h>

#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sandbox {
namespace {

using sim::Task;

struct Rig {
  sim::Simulator sim;
  sim::Host host{sim, "h", 450e6};
  sim::Host peer{sim, "srv", 450e6};
  sim::Link link{sim, "l", 12.5e6, 0.0};  // fast LAN, no latency
  sim::Channel ch{link};
};

sim::Message message_of(std::size_t payload) {
  sim::Message m;
  m.kind = 1;
  m.payload.assign(payload, 0);
  return m;
}

/// Time to push `count` messages of `payload` bytes under `opts`.
double timed_sends(Rig& rig, const Sandbox::Options& opts, int count,
                   std::size_t payload) {
  Sandbox box(rig.host, "app", opts);
  box.attach_endpoint(rig.ch.a());
  double done = -1.0;
  auto sender = [&]() -> Task<> {
    for (int i = 0; i < count; ++i) {
      co_await box.send(rig.ch.a(), message_of(payload));
    }
    done = rig.sim.now();
  };
  rig.sim.spawn(sender());
  rig.sim.run();
  return done;
}

TEST(NetEnforcement, DelayedModeConvergesToConfiguredRate) {
  Rig rig;
  Sandbox::Options opts;
  opts.net_bandwidth_bps = 100e3;
  opts.net_enforcement = NetEnforcement::kDelayed;
  // 50 messages x ~20 KB = 1 MB at 100 KB/s -> ~10 s.
  double done = timed_sends(rig, opts, 50, 20000 - sim::kMessageHeaderBytes);
  EXPECT_NEAR(done, 10.0, 0.2);
}

TEST(NetEnforcement, FluidAndDelayedAgreeOnAverage) {
  double fluid, delayed;
  {
    Rig rig;
    Sandbox::Options opts;
    opts.net_bandwidth_bps = 200e3;
    opts.net_enforcement = NetEnforcement::kFluid;
    fluid = timed_sends(rig, opts, 40, 10000);
  }
  {
    Rig rig;
    Sandbox::Options opts;
    opts.net_bandwidth_bps = 200e3;
    opts.net_enforcement = NetEnforcement::kDelayed;
    delayed = timed_sends(rig, opts, 40, 10000);
  }
  EXPECT_NEAR(delayed, fluid, 0.1 * fluid);
}

TEST(NetEnforcement, DelayedModeAllowsBurstWithinWindow) {
  // A single message within the burst budget goes out at link speed, far
  // faster than the average rate would allow.
  Rig rig;
  Sandbox::Options opts;
  opts.net_bandwidth_bps = 100e3;
  opts.net_enforcement = NetEnforcement::kDelayed;
  opts.net_burst_window = 0.05;  // 5 KB burst budget
  Sandbox box(rig.host, "app", opts);
  box.attach_endpoint(rig.ch.a());
  double done = -1.0;
  auto sender = [&]() -> Task<> {
    // Let the bucket fill, then send one 4 KB message.
    co_await rig.sim.delay(1.0);
    co_await box.send(rig.ch.a(), message_of(4000));
    done = rig.sim.now();
  };
  rig.sim.spawn(sender());
  rig.sim.run();
  // 4 KB at 12.5 MB/s link = ~0.3 ms, vs 40 ms at the average rate.
  EXPECT_LT(done - 1.0, 0.005);
}

TEST(NetEnforcement, UnlimitedSandboxPassesThrough) {
  Rig rig;
  Sandbox::Options opts;  // no net limit
  opts.net_enforcement = NetEnforcement::kDelayed;
  double done = timed_sends(rig, opts, 10, 100000);
  // Only constrained by the 12.5 MB/s link: ~0.08 s.
  EXPECT_LT(done, 0.2);
}

TEST(NetEnforcement, RejectsBadBurstWindow) {
  Rig rig;
  Sandbox::Options opts;
  opts.net_burst_window = 0.0;
  EXPECT_THROW(Sandbox(rig.host, "x", opts), std::invalid_argument);
}

class DelayedRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DelayedRateSweep, AverageRateMatchesConfig) {
  double bps = GetParam();
  Rig rig;
  Sandbox::Options opts;
  opts.net_bandwidth_bps = bps;
  opts.net_enforcement = NetEnforcement::kDelayed;
  std::size_t payload = 8000;
  int count = 30;
  double done = timed_sends(rig, opts, count, payload);
  double bytes = static_cast<double>(count) *
                 (payload + sim::kMessageHeaderBytes);
  EXPECT_NEAR(bytes / done, bps, 0.1 * bps);
}

INSTANTIATE_TEST_SUITE_P(Rates, DelayedRateSweep,
                         ::testing::Values(50e3, 100e3, 500e3, 2e6));

}  // namespace
}  // namespace avf::sandbox
