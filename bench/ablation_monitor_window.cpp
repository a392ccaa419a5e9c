// Ablation: monitoring history-window length vs adaptation latency and
// stability (the paper's §6.1 history window; DESIGN.md §6).  An
// experiment-1-style bandwidth drop is detected faster with short windows,
// but short windows also react to single noisy samples.
#include <iostream>

#include "bench/common.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Ablation: monitor window",
                       "history-window length vs adaptation latency "
                       "(bandwidth drop at t = 10 s)");
  const perfdb::PerfDatabase& full_db = bench::figure_database();
  // Restrict to the small-fovea configurations: dR=80 yields ~7 request
  // rounds per image, i.e. frequent bandwidth observations, which is what
  // makes the window length the deciding factor for detection latency.
  perfdb::PerfDatabase db = full_db;
  for (const tunable::ConfigPoint& c : full_db.configs()) {
    if (c.get("dR") != 80) db.erase_config(c);
  }

  viz::ServerCaches caches;
  viz::WorldSetup setup = bench::standard_setup(caches);
  viz::ResourceSchedule schedule;
  schedule.link_bandwidth = {{10.0, 50e3}};
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});

  util::TextTable table({"window (s)", "adaptations", "first switch at (s)",
                         "switch latency (s)", "total (s)"});
  for (double window : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    viz::AdaptiveOptions options;
    options.monitor.window = window;
    viz::SessionResult result =
        viz::run_adaptive_session(setup, db, {pref}, schedule, options);
    double first = result.adaptations.empty()
                       ? -1.0
                       : result.adaptations.front().time;
    table.add_row(
        {util::TextTable::num(window, 1),
         util::TextTable::num(
             static_cast<double>(result.adaptations.size()), 0),
         first < 0 ? "-" : util::TextTable::num(first, 2),
         first < 0 ? "-" : util::TextTable::num(first - 10.0, 2),
         util::TextTable::num(result.total_time, 1)});
  }
  table.print(std::cout);
  bench::note(
      "\nShort windows detect the drop quickly; very long windows dilute "
      "fresh samples with pre-drop history and delay (or suppress) the "
      "switch.");
  return 0;
}
