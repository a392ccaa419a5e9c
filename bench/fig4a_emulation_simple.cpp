// Figure 4(a): the testbed on a fast machine emulates slower physical
// machines.  The same fixed-work application runs (i) on simulated
// "physical" hosts at the paper's three speeds and (ii) on the PII-450
// testbed host under a quantized CPU share equal to the speed ratio.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

using namespace avf;

constexpr double kBaseSpeed = 450e6;
constexpr double kWork = kBaseSpeed * 4.0;
// The paper's emulation bound: testbed within 8% of the physical machine.
constexpr double kMaxDiffPct = 8.0;

double run_physical(double speed) {
  sim::Simulator sim;
  sim::Host host(sim, "physical", speed);
  sandbox::Sandbox::Options opts;  // unconstrained
  sandbox::Sandbox box(host, "toy", opts);
  double done = -1.0;
  auto toy = [&]() -> sim::Task<> {
    co_await box.compute(kWork);
    done = sim.now();
  };
  sim.spawn(toy());
  sim.run();
  return done;
}

double run_testbed(double share) {
  sim::Simulator sim;
  sim::Host host(sim, "testbed-450", kBaseSpeed);
  sandbox::Sandbox::Options opts;
  opts.cpu_share = share;
  opts.cpu_enforcement = sandbox::CpuEnforcement::kQuantized;
  sandbox::Sandbox box(host, "toy", opts);
  double done = -1.0;
  auto toy = [&]() -> sim::Task<> {
    co_await box.compute(kWork);
    done = sim.now();
  };
  sim.spawn(toy());
  sim.run();
  return done;
}

}  // namespace

int main() {
  bench::figure_header("Figure 4(a)",
                       "simple application: physical machines vs testbed "
                       "emulation on a PII-450");

  struct Machine {
    const char* name;
    double speed;
  };
  util::TextTable table({"machine", "physical (s)", "testbed (s)", "diff %"});
  double max_diff = 0.0;
  for (Machine m : {Machine{"PII-450", 450e6}, Machine{"PII-333", 333e6},
                    Machine{"PPro-200", 200e6}}) {
    double physical = run_physical(m.speed);
    double emulated = run_testbed(m.speed / kBaseSpeed);
    double diff = 100.0 * std::abs(emulated - physical) / physical;
    max_diff = std::max(max_diff, diff);
    table.add_row({m.name, util::TextTable::num(physical, 3),
                   util::TextTable::num(emulated, 3),
                   util::TextTable::num(diff, 2)});
  }
  avf::bench::emit_table(table, "fig4a_emulation");
  bool same = max_diff <= kMaxDiffPct;
  bench::note(util::format(
      "\nShape check (paper): execution times on the testbed are about the "
      "same as on the physical machines (max diff {:.2f}%, bound {:.0f}%) "
      "[{}].",
      max_diff, kMaxDiffPct, same ? "OK" : "FAIL"));
  return same ? 0 : 1;
}
