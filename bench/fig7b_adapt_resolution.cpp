// Figure 7(b) / Experiment 2: adapting image resolution to CPU conditions.
// Ten images; client CPU share 90% dropping to 40% at t = 30 s; user
// preference: transmission time below a deadline while maximizing image
// resolution.  The deadline is derived from the performance database the
// same way the paper's 10-second deadline relates to its profiles: between
// the level-4 times at 90% and at 40% CPU, so the drop forces a downgrade.
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Figure 7(b) / Experiment 2",
                       "degrading resolution when CPU share drops 90% -> "
                       "40% at t = 30 s");
  const perfdb::PerfDatabase& full_db = bench::figure_database();
  // The paper constrains this experiment to the resolution knob ("for
  // simplicity, we constrain image resolution to be one of two levels"),
  // holding dR and the codec fixed.  Without this restriction our scheduler
  // finds an even better escape (switching codec/fovea to meet the deadline
  // at full resolution) — interesting, but not Figure 7(b).
  perfdb::PerfDatabase db = full_db;
  for (const tunable::ConfigPoint& c : full_db.configs()) {
    if (c.get("c") != 1 || c.get("dR") != 160) db.erase_config(c);
  }

  viz::ServerCaches caches;
  viz::WorldSetup setup = bench::standard_setup(caches);
  setup.client_cpu_share = 0.9;
  setup.link_bandwidth_bps = 500e3;
  viz::ResourceSchedule schedule;
  schedule.client_cpu = {{.at = 30.0, .cpu_share = 0.4}};

  double t4_fast = db.predict(bench::viz_config(160, 1, 4), {0.9, 500e3})
                       ->get("transmit_time");
  double t4_slow = db.predict(bench::viz_config(160, 1, 4), {0.4, 500e3})
                       ->get("transmit_time");
  double deadline = 0.5 * (t4_fast + t4_slow);
  bench::note(util::format(
      "deadline: transmit_time <= {:.2f} s (level-4 takes {:.2f} s at 90% "
      "CPU, {:.2f} s at 40%; paper used 10 s against 18 s)",
      deadline, t4_fast, t4_slow));

  adapt::UserPreference pref = adapt::maximize_metric("resolution");
  pref.constraints.push_back({.metric = "transmit_time", .max = deadline});

  viz::SessionResult adaptive =
      viz::run_adaptive_session(setup, db, {pref}, schedule);
  tunable::ConfigPoint config_l4 = adaptive.initial_config;
  tunable::ConfigPoint config_l3 =
      adaptive.adaptations.empty() ? config_l4.with("l", 3)
                                   : adaptive.adaptations.back().to;
  viz::SessionResult static_l4 =
      viz::run_fixed_session(setup, config_l4, schedule);
  viz::SessionResult static_l3 =
      viz::run_fixed_session(setup, config_l3, schedule);

  for (const auto& event : adaptive.adaptations) {
    bench::note(util::format("  t={:.2f}s: adapt {} -> {}", event.time,
                             event.from.key(), event.to.key()));
  }
  std::cout << '\n';

  util::TextTable table(
      {"image", "adaptive transmit (s)", "adaptive level",
       util::format("static {} (s)", config_l4.key()),
       util::format("static {} (s)", config_l3.key())});
  int violations_adaptive = 0, violations_static4 = 0;
  for (std::size_t i = 0; i < adaptive.images.size(); ++i) {
    if (adaptive.images[i].transmit_time > deadline) ++violations_adaptive;
    if (static_l4.images[i].transmit_time > deadline) ++violations_static4;
    table.add_row(
        {util::TextTable::num(static_cast<double>(i + 1), 0),
         util::TextTable::num(adaptive.images[i].transmit_time, 2),
         util::TextTable::num(adaptive.images[i].resolution, 0),
         util::TextTable::num(static_l4.images[i].transmit_time, 2),
         util::TextTable::num(static_l3.images[i].transmit_time, 2)});
  }
  avf::bench::emit_table(table, "fig7b_experiment2");

  bool downgraded = !adaptive.adaptations.empty() &&
                    adaptive.adaptations[0].to.get("l") == 3 &&
                    adaptive.initial_config.get("l") == 4;
  // Allow the image in flight during the switch to overshoot (the paper's
  // fifth image also straddles its switch).
  bool meets_deadline = violations_adaptive <= 1;
  bench::note(util::format(
      "\nShape checks (paper): starts at level 4, degrades to level 3 after "
      "the CPU drop [{}]; adaptive meets the deadline except at most the "
      "in-flight image [{} violations], while static level-4 violates it "
      "after the drop [{} violations].",
      downgraded ? "OK" : "FAIL", violations_adaptive, violations_static4));
  return downgraded && meets_deadline && violations_static4 > 0 ? 0 : 1;
}
