// Figures 7(c)/(d) / Experiment 3: adapting the fovea size to CPU
// conditions.  Ten images; client CPU share 90% dropping to 40% at
// t = 40 s; user preference: minimize transmission time while keeping the
// average response time of user interactions below a bound.  The bound is
// derived from the database exactly as the paper's 1-second bound relates
// to its Figure 5 profiles: the largest fovea satisfies it at 90% CPU but
// violates it at 40%, forcing a switch to a smaller fovea.
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Figures 7(c)/(d) / Experiment 3",
                       "changing fovea size when CPU share drops 90% -> 40% "
                       "at t = 40 s");
  const perfdb::PerfDatabase& db = bench::figure_database();

  viz::WorldSetup setup = bench::standard_setup();
  setup.client_cpu_share = 0.9;
  setup.link_bandwidth_bps = 500e3;
  viz::ResourceSchedule schedule;
  schedule.client_cpu = {{.at = 40.0, .cpu_share = 0.4}};

  // Find the largest dR whose response time fits at 90% but not at 40%.
  double resp_fast = db.predict(bench::viz_config(320, 1, 4), {0.9, 500e3})
                         ->get("response_time");
  double resp_slow = db.predict(bench::viz_config(320, 1, 4), {0.4, 500e3})
                         ->get("response_time");
  double bound = 0.5 * (resp_fast + resp_slow);
  bench::note(util::format(
      "response bound: {:.2f} s (fovea 320 responds in {:.2f} s at 90% CPU, "
      "{:.2f} s at 40%; paper used 1 s against 1.4 s)",
      bound, resp_fast, resp_slow));

  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "response_time", .max = bound});
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});

  viz::SessionResult adaptive =
      viz::run_adaptive_session(setup, db, {pref}, schedule);
  tunable::ConfigPoint config_big = adaptive.initial_config;
  tunable::ConfigPoint config_small =
      adaptive.adaptations.empty() ? config_big.with("dR", 80)
                                   : adaptive.adaptations.back().to;
  viz::SessionResult static_big =
      viz::run_fixed_session(setup, config_big, schedule);
  viz::SessionResult static_small =
      viz::run_fixed_session(setup, config_small, schedule);

  for (const auto& event : adaptive.adaptations) {
    bench::note(util::format("  t={:.2f}s: adapt {} -> {}", event.time,
                             event.from.key(), event.to.key()));
  }

  std::cout << "\n(c) average response time per image (s)\n";
  util::TextTable resp({"image", "adaptive",
                        util::format("static {}", config_big.key()),
                        util::format("static {}", config_small.key())});
  for (std::size_t i = 0; i < adaptive.images.size(); ++i) {
    resp.add_row({util::TextTable::num(static_cast<double>(i + 1), 0),
                  util::TextTable::num(adaptive.images[i].avg_response, 3),
                  util::TextTable::num(static_big.images[i].avg_response, 3),
                  util::TextTable::num(static_small.images[i].avg_response,
                                       3)});
  }
  avf::bench::emit_table(resp, "fig7c_response");

  std::cout << "\n(d) image transmission time (s)\n";
  util::TextTable trans({"image", "adaptive",
                         util::format("static {}", config_big.key()),
                         util::format("static {}", config_small.key())});
  for (std::size_t i = 0; i < adaptive.images.size(); ++i) {
    trans.add_row(
        {util::TextTable::num(static_cast<double>(i + 1), 0),
         util::TextTable::num(adaptive.images[i].transmit_time, 2),
         util::TextTable::num(static_big.images[i].transmit_time, 2),
         util::TextTable::num(static_small.images[i].transmit_time, 2)});
  }
  avf::bench::emit_table(trans, "fig7d_transmit");

  bool shrank = !adaptive.adaptations.empty() &&
                adaptive.adaptations[0].to.get("dR") <
                    adaptive.initial_config.get("dR");
  int late_violations = 0;
  for (const auto& img : adaptive.images) {
    if (img.start_time > 45.0 && img.avg_response > bound) {
      ++late_violations;
    }
  }
  bench::note(util::format(
      "\nShape checks (paper): scheduler switches to a smaller fovea after "
      "the CPU drop [{}]; responses after the switch respect the bound "
      "[{} late violations].",
      shrank ? "OK" : "FAIL", late_violations));
  return shrank && late_violations <= 1 ? 0 : 1;
}
