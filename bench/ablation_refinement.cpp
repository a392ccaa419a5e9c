// Ablation: sensitivity-driven refinement sampling.  The paper's modeling
// step "performs sensitivity analysis to determine configurations and
// regions of the resource space that require additional samples" (§5).
// Starting from a deliberately coarse grid, each refinement round adds
// samples where metrics change fastest; we measure how prediction error at
// off-grid probe points falls with each round.
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "perfdb/driver.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Ablation: sensitivity-driven refinement",
                       "prediction error vs refinement rounds, starting "
                       "from a coarse 3x3 grid");

  viz::ServerCaches caches;
  viz::WorldSetup base = bench::standard_setup(caches);
  base.image_count = 1;
  tunable::ConfigPoint probe_config = bench::viz_config(160, 1, 4);

  // Ground truth at off-grid probes (actual testbed runs).
  struct Probe {
    double cpu, bw, actual = 0.0;
  };
  std::vector<Probe> probes{{0.2, 60e3}, {0.55, 150e3}, {0.8, 700e3}};
  for (Probe& p : probes) {
    viz::WorldSetup setup = base;
    setup.client_cpu_share = p.cpu;
    setup.link_bandwidth_bps = p.bw;
    p.actual = viz::run_fixed_session(setup, probe_config)
                   .images[0]
                   .transmit_time;
  }

  util::TextTable table(
      {"refinement rounds", "db samples", "mean probe error %"});
  for (int rounds : {0, 1, 2, 4, 6}) {
    perfdb::ProfilingDriver::Options options;
    options.refinement_rounds = rounds;
    options.sensitivity_threshold = 0.2;
    options.max_suggestions_per_round = 96;
    perfdb::ProfilingDriver driver(viz::make_viz_run_fn(base), options);
    perfdb::PerfDatabase db = driver.profile(
        viz::viz_app_spec(), {{0.1, 0.5, 1.0}, {25e3, 250e3, 1000e3}});
    double err_sum = 0.0;
    for (const Probe& p : probes) {
      double predicted = db.predict(probe_config, {p.cpu, p.bw})
                             ->get("transmit_time");
      err_sum += std::abs(predicted - p.actual) / p.actual;
    }
    table.add_row({util::TextTable::num(rounds, 0),
                   util::TextTable::num(static_cast<double>(db.size()), 0),
                   util::TextTable::num(100.0 * err_sum / probes.size(), 2)});
  }
  table.print(std::cout);
  bench::note(
      "\nRefinement concentrates new samples where the profile bends "
      "(low-bandwidth and low-CPU knees), shrinking interpolation error "
      "without re-sampling flat regions.");
  return 0;
}
