// Competition and policing tests: multiple sandboxed applications sharing
// one host — the paper's claim that "we can run several virtual machines on
// the same physical host, without them interfering with each other".
#include <gtest/gtest.h>

#include <vector>

#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sandbox {
namespace {

using sim::Task;

constexpr double kSpeed = 450e6;

TEST(Competition, UnderloadedSandboxesDoNotInterfere) {
  // Three sandboxes with caps summing to < 1 all receive exactly their
  // configured shares even while running concurrently (both modes).
  for (auto mode :
       {CpuEnforcement::kFluid, CpuEnforcement::kQuantized}) {
    sim::Simulator sim;
    sim::Host host(sim, "h", kSpeed);
    std::vector<double> shares{0.5, 0.3, 0.15};
    std::vector<std::unique_ptr<Sandbox>> boxes;
    std::vector<double> done(shares.size(), -1.0);
    for (std::size_t i = 0; i < shares.size(); ++i) {
      Sandbox::Options opts;
      opts.cpu_share = shares[i];
      opts.cpu_enforcement = mode;
      boxes.push_back(
          std::make_unique<Sandbox>(host, "app" + std::to_string(i), opts));
    }
    // Captureless coroutine lambda: parameters are copied into the frame,
    // so spawning a temporary is safe (captures would dangle).
    auto proc = [](Sandbox* box, double work, sim::Simulator* s,
                   double* done_at) -> Task<> {
      co_await box->compute(work);
      *done_at = s->now();
    };
    for (std::size_t i = 0; i < shares.size(); ++i) {
      // Work sized so each finishes in exactly 2 s at its share.
      sim.spawn(proc(boxes[i].get(), kSpeed * shares[i] * 2.0, &sim,
                     &done[i]));
    }
    sim.run();
    for (std::size_t i = 0; i < shares.size(); ++i) {
      EXPECT_NEAR(done[i], 2.0,
                  mode == CpuEnforcement::kFluid ? 1e-9 : 0.08)
          << "mode=" << static_cast<int>(mode) << " app=" << i;
    }
  }
}

TEST(Competition, OversubscriptionSplitsByWeight) {
  // Two fluid sandboxes with caps 0.8 + 0.8 oversubscribe the host; the
  // water-filler splits capacity by weight (= share here), not caps.
  sim::Simulator sim;
  sim::Host host(sim, "h", kSpeed);
  Sandbox::Options opts;
  opts.cpu_share = 0.8;
  Sandbox a(host, "a", opts), b(host, "b", opts);
  double a_done = -1.0, b_done = -1.0;
  auto pa = [&]() -> Task<> {
    co_await a.compute(kSpeed);
    a_done = sim.now();
  };
  auto pb = [&]() -> Task<> {
    co_await b.compute(kSpeed);
    b_done = sim.now();
  };
  sim.spawn(pa());
  sim.spawn(pb());
  sim.run();
  // Equal weights, equal demand: both get 50% -> 2 s.
  EXPECT_NEAR(a_done, 2.0, 1e-9);
  EXPECT_NEAR(b_done, 2.0, 1e-9);
}

TEST(Competition, PolicingPreventsOveruse) {
  // A sandboxed app cannot exceed its cap even when the host is otherwise
  // idle — the "applications must not be allowed to use more than their
  // share" requirement of §6.2.
  sim::Simulator sim;
  sim::Host host(sim, "h", kSpeed);
  Sandbox::Options opts;
  opts.cpu_share = 0.25;
  Sandbox box(host, "greedy", opts);
  double done = -1.0;
  auto proc = [&]() -> Task<> {
    co_await box.compute(kSpeed);  // 1 s of work
    done = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_NEAR(done, 4.0, 1e-9);  // not faster than its 25%
}

TEST(Competition, QuantizedSandboxesConvergeTogether) {
  // Two quantized sandboxes (closed-loop enforcement) sharing a host both
  // converge to their configured averages.
  sim::Simulator sim;
  sim::Host host(sim, "h", kSpeed);
  Sandbox::Options a_opts, b_opts;
  a_opts.cpu_share = 0.6;
  a_opts.cpu_enforcement = CpuEnforcement::kQuantized;
  b_opts.cpu_share = 0.3;
  b_opts.cpu_enforcement = CpuEnforcement::kQuantized;
  Sandbox a(host, "a", a_opts), b(host, "b", b_opts);
  auto busy = [&](Sandbox& box) -> Task<> {
    co_await box.compute(kSpeed * 10.0);
  };
  sim.spawn(busy(a));
  sim.spawn(busy(b));
  sim.run_until(10.0);
  EXPECT_NEAR(a.cpu_served() / (kSpeed * 10.0), 0.6, 0.05);
  EXPECT_NEAR(b.cpu_served() / (kSpeed * 10.0), 0.3, 0.05);
}

}  // namespace
}  // namespace avf::sandbox
