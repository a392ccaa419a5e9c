// Figure 3(b): measured vs expected execution time under the testbed.
// A fixed-work toy application runs under quantized CPU shares 10%..100%;
// the expected time is the dedicated-host execution time normalized by the
// requested share (the paper's definition).
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

constexpr double kSpeed = 450e6;
constexpr double kWork = kSpeed * 5.0;  // 5 s at full speed
// The paper: "negligible differences" between measured and expected time.
constexpr double kMaxErrorPct = 1.0;

double run_with_share(double share) {
  sim::Simulator sim;
  sim::Host host(sim, "testbed", kSpeed);
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
  bench::figure_header(
      "Figure 3(b)",
      "application execution time under the testbed vs expected");

  double base = run_with_share(1.0);
  util::TextTable table(
      {"cpu share %", "expected (s)", "measured (s)", "error %"});
  double max_error = 0.0;
  for (int pct = 10; pct <= 100; pct += 10) {
    double share = pct / 100.0;
    double expected = base / share;
    double measured = run_with_share(share);
    double error = 100.0 * std::abs(measured - expected) / expected;
    max_error = std::max(max_error, error);
    table.add_row({util::TextTable::num(pct, 0),
                   util::TextTable::num(expected, 3),
                   util::TextTable::num(measured, 3),
                   util::TextTable::num(error, 2)});
  }
  avf::bench::emit_table(table, "fig3b_accuracy");
  bool tracks = max_error <= kMaxErrorPct;
  bench::note(util::format(
      "\nShape check (paper): measured tracks expected across the whole "
      "share range; max error here {:.2f}%, bound {:.0f}% (paper: negligible "
      "differences) [{}].",
      max_error, kMaxErrorPct, tracks ? "OK" : "FAIL"));
  return tracks ? 0 : 1;
}
