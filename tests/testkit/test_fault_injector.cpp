// FaultInjector: seeded schedules are deterministic and bounded, scheduled
// faults really move the targeted resources (and restore them), mailbox
// faults drop/hold/reorder deliveries through a live Channel, and the
// injected ground truth stays queryable throughout.
#include "testkit/fault_injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sandbox/sandbox.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avf::testkit {
namespace {

constexpr double kNominalBw = 1e6;

/// A minimal world: two hosts, one link, one channel, victim + rival
/// sandboxes on the client host.
struct World {
  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host& client = net.add_host("client", 450e6);
  sim::Host& server = net.add_host("server", 450e6);
  sim::Link& link = net.connect(client, server, kNominalBw, 0.005);
  sim::Channel& channel = net.open_channel(link);
  sandbox::Sandbox victim{client, "victim", {}};
  sandbox::Sandbox rival{client, "rival", {}};

  FaultInjector::Targets targets() {
    return {.sim = &sim,
            .link = &link,
            .victim = &victim,
            .competitor = &rival,
            .inbound = &channel.a()};
  }
};

Fault make_fault(FaultKind kind, double at, double until, double value,
                 double period = 0.0) {
  Fault f;
  f.kind = kind;
  f.at = at;
  f.until = until;
  f.value = value;
  f.period = period;
  return f;
}

TEST(FaultSchedule, RandomScheduleIsDeterministic) {
  const FaultSchedule a = random_schedule(12345);
  const FaultSchedule b = random_schedule(12345);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].describe(), b.faults[i].describe());
  }
  const FaultSchedule c = random_schedule(12346);
  bool identical = a.faults.size() == c.faults.size();
  for (std::size_t i = 0; identical && i < a.faults.size(); ++i) {
    identical = a.faults[i].describe() == c.faults[i].describe();
  }
  EXPECT_FALSE(identical);
}

TEST(FaultSchedule, RandomScheduleRespectsLimits) {
  ScheduleLimits limits;
  limits.earliest = 1.0;
  limits.latest_clear = 6.0;
  limits.min_faults = 2;
  limits.max_faults = 5;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FaultSchedule s = random_schedule(seed, limits);
    EXPECT_GE(static_cast<int>(s.faults.size()), limits.min_faults);
    EXPECT_LE(static_cast<int>(s.faults.size()), limits.max_faults);
    for (const Fault& f : s.faults) {
      EXPECT_GE(f.at, limits.earliest) << f.describe();
      EXPECT_GT(f.until, f.at) << f.describe();
    }
    // Every effect, tails included, clears before latest_clear.
    EXPECT_LE(s.clear_time(), limits.latest_clear) << "seed " << seed;
  }
}

TEST(FaultSchedule, ClearTimeIncludesMailboxTail) {
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kMailboxDelay, 1.0, 2.0, 0.3));
  // Held deliveries can deposit up to `value` after the window closes.
  EXPECT_DOUBLE_EQ(s.clear_time(), 2.3);
}

TEST(FaultInjector, BandwidthFaultAppliesAndRestores) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kLinkBandwidth, 1.0, 2.0, 120e3));
  injector.arm(s);

  w.sim.run_until(1.5);
  EXPECT_DOUBLE_EQ(w.link.bandwidth(), 120e3);
  EXPECT_DOUBLE_EQ(injector.true_bandwidth(), 120e3);
  EXPECT_DOUBLE_EQ(injector.bandwidth_stable_since(), 1.0);

  w.sim.run();
  EXPECT_DOUBLE_EQ(w.link.bandwidth(), kNominalBw);
  EXPECT_DOUBLE_EQ(injector.bandwidth_stable_since(), 2.0);
}

TEST(FaultInjector, FlapTogglesBandwidth) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  s.faults.push_back(
      make_fault(FaultKind::kLinkFlap, 1.0, 2.0, 100e3, /*period=*/0.25));
  injector.arm(s);

  std::vector<double> sampled;
  for (double t : {1.1, 1.35, 1.6, 1.85}) {
    w.sim.schedule_at(t, [&] { sampled.push_back(w.link.bandwidth()); });
  }
  w.sim.run();
  EXPECT_EQ(sampled,
            (std::vector<double>{100e3, kNominalBw, 100e3, kNominalBw}));
  EXPECT_DOUBLE_EQ(w.link.bandwidth(), kNominalBw);
}

TEST(FaultInjector, CpuCapAppliesAndRestores) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kCpuShare, 1.0, 3.0, 0.2));
  injector.arm(s);

  w.sim.run_until(2.0);
  EXPECT_DOUBLE_EQ(w.victim.cpu_share(), 0.2);
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 0.2);
  EXPECT_DOUBLE_EQ(injector.cpu_stable_since(), 1.0);

  w.sim.run();
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 1.0);
}

TEST(FaultInjector, CpuStealWaterFillsGroundTruth) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  // Equal-weight over-subscription: an uncapped victim against a 0.7-share
  // busy loop water-fills at half the CPU.
  s.faults.push_back(make_fault(FaultKind::kCpuSteal, 1.0, 2.0, 0.7));
  injector.arm(s);

  w.sim.run_until(1.5);
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 0.5);

  w.sim.run();
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 1.0);
}

TEST(FaultInjector, SmallStealCannotPushVictimBelowItsFloor) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kCpuSteal, 1.0, 2.0, 0.3));
  injector.arm(s);
  w.sim.run_until(1.5);
  // Victim (cap 1.0) yields only the competitor's share: 1 - 0.3.
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 0.7);
  w.sim.run();
}

TEST(FaultInjector, MailboxDropConsumesInboundDeliveries) {
  World w;
  FaultInjector injector(w.targets(), 7);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kMailboxDrop, 1.0, 2.0, 1.0));
  injector.arm(s);

  int received = 0;
  w.sim.spawn([](sim::Endpoint& ep, int& count) -> sim::Task<> {
    for (;;) {
      co_await ep.recv();
      ++count;
    }
  }(w.channel.a(), received));
  // One message lands mid-window (dropped), one after (delivered).
  for (double t : {1.5, 3.0}) {
    w.sim.schedule_at(t, [&] {
      w.sim.spawn([](sim::Endpoint& ep) -> sim::Task<> {
        co_await ep.send(sim::Message{.kind = 1});
      }(w.channel.b()));
    });
  }
  w.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(injector.messages_dropped(), 1u);
}

TEST(FaultInjector, MailboxDelayHoldsAndCanReorderDeliveries) {
  World w;
  FaultInjector injector(w.targets(), 3);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kMailboxDelay, 1.0, 2.0, 0.5));
  injector.arm(s);

  std::vector<int> order;
  std::vector<double> at;
  w.sim.spawn([](sim::Simulator& sim, sim::Endpoint& ep, std::vector<int>& o,
                 std::vector<double>& t) -> sim::Task<> {
    for (;;) {
      sim::Message m = co_await ep.recv();
      o.push_back(m.kind);
      t.push_back(sim.now());
    }
  }(w.sim, w.channel.a(), order, at));
  // A burst of tagged messages inside the window: each is held for an
  // independent U(0, 0.5) draw, so late sends can overtake early ones.
  for (int k = 1; k <= 8; ++k) {
    w.sim.schedule_at(1.0 + 0.01 * k, [&w, k] {
      w.sim.spawn([](sim::Endpoint& ep, int kind) -> sim::Task<> {
        co_await ep.send(sim::Message{.kind = kind});
      }(w.channel.b(), k));
    });
  }
  w.sim.run();

  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(injector.messages_delayed(), 8u);
  // Every delivery was held beyond pure wire latency...
  for (double t : at) EXPECT_GT(t, 1.0 + w.link.latency());
  // ...and with seed 3 the holds are unequal enough to reorder.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  EXPECT_TRUE(injector.mailbox_disturbed_in(1.5, 1.6));
  EXPECT_FALSE(injector.mailbox_disturbed_in(5.0, 6.0));
}

TEST(FaultInjector, PerturbScalesOnlyInsideNoiseWindow) {
  World w;
  FaultInjector injector(w.targets(), 11);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kMonitorNoise, 1.0, 2.0, 0.2));
  injector.arm(s);

  EXPECT_DOUBLE_EQ(injector.perturb("cpu_share", 0.8), 0.8);  // before window
  double inside = 0.0;
  double after = 0.0;
  w.sim.schedule_at(1.5, [&] { inside = injector.perturb("cpu_share", 0.8); });
  w.sim.schedule_at(3.0, [&] { after = injector.perturb("cpu_share", 0.8); });
  w.sim.run();
  EXPECT_GE(inside, 0.8 * 0.8);
  EXPECT_LE(inside, 0.8 * 1.2);
  EXPECT_DOUBLE_EQ(after, 0.8);  // window closed
  EXPECT_DOUBLE_EQ(injector.max_noise_in(1.0, 2.0), 0.2);
  EXPECT_DOUBLE_EQ(injector.max_noise_in(3.0, 4.0), 0.0);
}

TEST(FaultInjector, ConcurrentStealIsSkippedNotStacked) {
  World w;
  FaultInjector injector(w.targets(), 1);
  FaultSchedule s;
  s.faults.push_back(make_fault(FaultKind::kCpuSteal, 1.0, 3.0, 0.7));
  s.faults.push_back(make_fault(FaultKind::kCpuSteal, 1.5, 2.0, 0.6));
  injector.arm(s);

  w.sim.run_until(1.7);
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 0.5);  // first steal only
  w.sim.run_until(2.5);
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 0.5);  // survives second's end
  w.sim.run();
  EXPECT_DOUBLE_EQ(injector.true_cpu_share(), 1.0);
}

}  // namespace
}  // namespace avf::testkit
