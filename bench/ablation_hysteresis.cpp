// Ablation: scheduler switch hysteresis under oscillating resources.  The
// paper's §7.5 caveat: "smaller variations would require better algorithms
// ... so as to not degrade overall performance by unnecessary adaptations."
// Bandwidth oscillates around the compression crossover; without hysteresis
// the scheduler thrashes between codecs.
#include <iostream>

#include "bench/common.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Ablation: switch hysteresis",
                       "bandwidth oscillating across the codec crossover "
                       "(55 <-> 100 KBps every 12 s)");
  const perfdb::PerfDatabase& db = bench::figure_database();

  viz::ServerCaches caches;
  viz::WorldSetup setup = bench::standard_setup(caches);
  setup.image_count = 8;
  setup.link_bandwidth_bps = 100e3;
  viz::ResourceSchedule schedule;
  for (int i = 0; i < 12; ++i) {
    schedule.link_bandwidth.push_back(
        {12.0 * (i + 1), i % 2 == 0 ? 55e3 : 100e3});
  }
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});

  util::TextTable table({"hysteresis", "adaptations", "total (s)"});
  for (double h : {0.0, 0.05, 0.15, 0.40}) {
    viz::AdaptiveOptions options;
    options.scheduler.switch_hysteresis = h;
    viz::SessionResult result =
        viz::run_adaptive_session(setup, db, {pref}, schedule, options);
    table.add_row(
        {util::TextTable::num(h, 2),
         util::TextTable::num(
             static_cast<double>(result.adaptations.size()), 0),
         util::TextTable::num(result.total_time, 1)});
  }
  table.print(std::cout);
  bench::note(
      "\nHigher hysteresis suppresses thrashing near the crossover; the "
      "configurations are nearly equivalent there, so fewer switches should "
      "not cost total time.");
  return 0;
}
