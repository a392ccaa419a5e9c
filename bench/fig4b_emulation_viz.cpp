// Figure 4(b): testbed emulation fidelity for the full active visualization
// application (memory, network, and CPU effects together).  The client runs
// (i) on simulated "physical" PII-333 / PPro-200 hosts and (ii) on a
// PII-450 under a quantized CPU share equal to the speed ratio; in all
// cases the server is a PII-450 whose network bandwidth the testbed limits
// to 1 MBps (paper §5.1).  Crucially — and this is the paper's point — the
// emulated times are far below "PII-450 time stretched by 1/share", because
// network waiting does not scale with CPU speed.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

using namespace avf;

constexpr double kBaseSpeed = 450e6;
// The paper saw the testbed within 8% of the physical machines.
constexpr double kMaxDiffPct = 8.0;

viz::WorldSetup base_setup() {
  viz::WorldSetup setup = bench::standard_setup();
  setup.image_count = 1;
  setup.server_net_bps = 1e6;  // paper: server testbed limited to 1 MBps
  return setup;
}

double run_physical(double client_speed) {
  viz::WorldSetup setup = base_setup();
  setup.client_speed = client_speed;
  return viz::run_fixed_session(setup, bench::viz_config(160, 1, 4))
      .images[0]
      .transmit_time;
}

double run_testbed(double share) {
  viz::WorldSetup setup = base_setup();
  setup.client_cpu_share = share;
  setup.enforcement = sandbox::CpuEnforcement::kQuantized;
  return viz::run_fixed_session(setup, bench::viz_config(160, 1, 4))
      .images[0]
      .transmit_time;
}

}  // namespace

int main() {
  bench::figure_header("Figure 4(b)",
                       "active visualization: physical machines vs testbed "
                       "emulation (server limited to 1 MBps)");

  double base_time = run_physical(kBaseSpeed);
  util::TextTable table({"machine", "physical (s)", "testbed (s)", "diff %",
                         "naive stretch (s)"});
  double max_diff = 0.0;
  bool below_naive = true;
  for (auto [name, speed] : {std::pair{"PII-450", 450e6},
                             std::pair{"PII-333", 333e6},
                             std::pair{"PPro-200", 200e6}}) {
    double physical = run_physical(speed);
    double emulated = run_testbed(speed / kBaseSpeed);
    double diff = 100.0 * std::abs(emulated - physical) / physical;
    double naive = base_time * kBaseSpeed / speed;
    max_diff = std::max(max_diff, diff);
    // The base machine's naive stretch is its own physical time.
    if (speed < kBaseSpeed) {
      below_naive = below_naive && physical < naive && emulated < naive;
    }
    table.add_row({name, util::TextTable::num(physical, 3),
                   util::TextTable::num(emulated, 3),
                   util::TextTable::num(diff, 2),
                   util::TextTable::num(naive, 3)});
  }
  avf::bench::emit_table(table, "fig4b_emulation");
  bool within = max_diff <= kMaxDiffPct;
  bench::note(util::format(
      "\nShape checks (paper): testbed matches the physical machine within "
      "{:.0f}% (max diff here {:.2f}%) [{}]; both are below the naive "
      "CPU-stretch estimate because network time does not scale with CPU "
      "share [{}].",
      kMaxDiffPct, max_diff, within ? "OK" : "FAIL",
      below_naive ? "OK" : "FAIL"));
  return within && below_naive ? 0 : 1;
}
