// Figure 3(a): the virtual execution environment controls CPU usage as
// specified.  A compute-bound toy application runs under a quantized
// sandbox whose share is scripted 80% -> 40% (t=20s) -> 60% (t=50s); an
// external usage monitor samples utilization in 1-second windows, exactly
// like the NT Performance Monitor trace in the paper.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "sandbox/sandbox.hpp"
#include "sandbox/schedule.hpp"
#include "sandbox/usage_monitor.hpp"
#include "sim/host.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

using namespace avf;

constexpr double kSpeed = 450e6;
// The paper: usage follows the configured share with quantization jitter
// only.  A phase mean more than one percentage point off is not jitter.
constexpr double kMaxPhaseErrorPct = 1.0;

}  // namespace

int main() {
  bench::figure_header("Figure 3(a)",
                       "testbed CPU control: share 80% -> 40% @20s -> 60% @50s");

  sim::Simulator sim;
  sim::Host host(sim, "testbed", kSpeed);
  sandbox::Sandbox::Options opts;
  opts.cpu_share = 0.8;
  opts.cpu_enforcement = sandbox::CpuEnforcement::kQuantized;
  sandbox::Sandbox box(host, "toy", opts);
  apply_schedule(sim, box,
                 {{.at = 20.0, .cpu_share = 0.4},
                  {.at = 50.0, .cpu_share = 0.6}});

  sandbox::UsageMonitor monitor(sim, host.cpu(), box.owner(), 1.0);
  monitor.start();

  // Compute-bound toy app: enough work to stay busy the whole 70 s.
  auto toy = [&]() -> sim::Task<> {
    co_await box.compute(kSpeed * 70.0);
  };
  sim.spawn(toy());
  sim.run_until(70.0);
  monitor.stop();

  util::TextTable table({"t (s)", "cpu %"});
  for (const auto& sample : monitor.samples()) {
    table.add_row({util::TextTable::num(sample.time, 0),
                   util::TextTable::num(100.0 * sample.utilization, 1)});
  }
  avf::bench::emit_table(table, "fig3a_usage_trace");

  struct Phase {
    const char* label;
    double from, to, configured_pct;
  };
  util::TextTable summary({"phase", "configured %", "measured mean %"});
  double max_error = 0.0;
  for (Phase p : {Phase{"0-20 s", 0, 20, 80}, Phase{"20-50 s", 20, 50, 40},
                  Phase{"50-70 s", 50, 70, 60}}) {
    double measured = 100 * monitor.mean_utilization(p.from, p.to);
    max_error = std::max(max_error, std::abs(measured - p.configured_pct));
    summary.add_row({p.label, util::TextTable::num(p.configured_pct, 0),
                     util::TextTable::num(measured, 2)});
  }
  std::cout << '\n';
  summary.print(std::cout);
  bool tracks = max_error <= kMaxPhaseErrorPct;
  bench::note(util::format(
      "\nShape check (paper): each phase's measured utilization tracks the "
      "configured share, with quantization jitter only (max phase error "
      "{:.2f} points, bound {:.0f}) [{}].",
      max_error, kMaxPhaseErrorPct, tracks ? "OK" : "FAIL"));
  return tracks ? 0 : 1;
}
