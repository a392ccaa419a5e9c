// End-to-end adaptation tests: profile a small-scale world, then verify the
// paper's three adaptation behaviors (compression / resolution / fovea) at
// miniature scale.  The full-size versions are the fig7* benchmarks.
#include <gtest/gtest.h>

#include <stdexcept>

#include "perfdb/prune.hpp"
#include "viz/world.hpp"

namespace avf::viz {
namespace {

using tunable::ConfigPoint;

WorldSetup small_setup() {
  WorldSetup setup;
  setup.image_size = 256;
  setup.levels = 4;
  setup.image_count = 6;
  setup.link_bandwidth_bps = 500e3;
  return setup;
}

/// Small profile of the miniature world, shared across tests in this file.
const perfdb::PerfDatabase& small_db() {
  static const perfdb::PerfDatabase db = [] {
    WorldSetup base = small_setup();
    return build_viz_database(base, {0.1, 0.4, 0.9, 1.0},
                              {25e3, 50e3, 250e3, 500e3});
  }();
  return db;
}

TEST(VizProfile, DatabaseCoversAllConfigs) {
  const auto& db = small_db();
  EXPECT_EQ(db.configs().size(), 18u);
  EXPECT_EQ(db.size(), 18u * 16u);
}

TEST(VizProfile, ProfilesShowPaperTrends) {
  const auto& db = small_db();
  ConfigPoint lzw;
  lzw.set("dR", 160);
  lzw.set("c", 1);
  lzw.set("l", 4);
  ConfigPoint bwt = lzw.with("c", 2);
  // Fig 6(a): crossover — B wins at 25 KBps, A wins at 500 KBps.
  double a_low = db.predict(lzw, {1.0, 25e3})->get("transmit_time");
  double b_low = db.predict(bwt, {1.0, 25e3})->get("transmit_time");
  double a_high = db.predict(lzw, {1.0, 500e3})->get("transmit_time");
  double b_high = db.predict(bwt, {1.0, 500e3})->get("transmit_time");
  EXPECT_LT(b_low, a_low);
  EXPECT_LT(a_high, b_high);
  // Fig 6(b): lower resolution is faster.
  double l3 = db.predict(lzw.with("l", 3), {0.4, 500e3})->get("transmit_time");
  double l4 = db.predict(lzw, {0.4, 500e3})->get("transmit_time");
  EXPECT_LT(l3, l4);
  // Fig 5: larger fovea -> higher response time, no worse transmit time.
  double resp_small = db.predict(lzw.with("dR", 80), {0.9, 500e3})
                          ->get("response_time");
  double resp_big = db.predict(lzw.with("dR", 320), {0.9, 500e3})
                        ->get("response_time");
  EXPECT_GT(resp_big, resp_small);
}

TEST(VizProfile, PruneKeepsCrossoverConfigs) {
  const auto& db = small_db();
  perfdb::PruneResult result = perfdb::analyze_prune(db, 0.01);
  // The none-codec configs are dominated somewhere but LZW/BWT level-4
  // configs both win in some region; they must survive.
  auto kept_has = [&](int c, int l) {
    for (const auto& k : result.kept) {
      if (k.get("c") == c && k.get("l") == l) return true;
    }
    return false;
  };
  EXPECT_TRUE(kept_has(1, 4));
  EXPECT_TRUE(kept_has(2, 4));
  EXPECT_LT(result.kept.size(), 18u);  // something was pruned or merged
}

TEST(VizAdapt, Experiment1SwitchesCompressionOnBandwidthDrop) {
  WorldSetup setup = small_setup();
  setup.image_count = 10;  // leave several images after the drop
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});

  ResourceSchedule schedule;
  schedule.link_bandwidth = {{0.5, 25e3}};  // collapse after 0.5 s

  SessionResult result =
      run_adaptive_session(setup, small_db(), {pref}, schedule);
  EXPECT_EQ(result.initial_config.get("c"), 1);  // LZW at 500 KBps
  ASSERT_GE(result.adaptations.size(), 1u);
  EXPECT_EQ(result.adaptations[0].to.get("c"), 2);  // switch to BWT
  // Final images actually ran under the new codec.
  EXPECT_NE(result.images.back().final_config.find("c=2"),
            std::string::npos);
}

TEST(VizAdapt, Experiment2DegradesResolutionUnderDeadline) {
  WorldSetup setup = small_setup();
  setup.client_cpu_share = 0.9;
  setup.link_bandwidth_bps = 250e3;
  // Deadline chosen between the level-4 times at 90% and 40% CPU so the
  // drop forces a downgrade.
  double t4_fast =
      small_db()
          .predict(ConfigPoint{{{"dR", 320}, {"c", 1}, {"l", 4}}},
                   {0.9, 250e3})
          ->get("transmit_time");
  double t4_slow =
      small_db()
          .predict(ConfigPoint{{{"dR", 320}, {"c", 1}, {"l", 4}}},
                   {0.4, 250e3})
          ->get("transmit_time");
  ASSERT_LT(t4_fast, t4_slow);
  double deadline = 0.5 * (t4_fast + t4_slow);

  adapt::UserPreference pref = adapt::maximize_metric("resolution");
  pref.constraints.push_back(
      {.metric = "transmit_time", .max = deadline});

  setup.image_count = 10;
  ResourceSchedule schedule;
  schedule.client_cpu = {{.at = 0.5, .cpu_share = 0.4}};

  SessionResult result =
      run_adaptive_session(setup, small_db(), {pref}, schedule);
  EXPECT_EQ(result.initial_config.get("l"), 4);
  ASSERT_GE(result.adaptations.size(), 1u);
  EXPECT_EQ(result.adaptations[0].to.get("l"), 3);
}

TEST(VizAdapt, AdaptiveBeatsWorseStaticUnderChange) {
  WorldSetup setup = small_setup();
  setup.image_count = 10;
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});
  ResourceSchedule schedule;
  schedule.link_bandwidth = {{0.5, 25e3}};

  SessionResult adaptive =
      run_adaptive_session(setup, small_db(), {pref}, schedule);
  ConfigPoint static_a;  // stays on LZW throughout
  static_a.set("dR", 160);
  static_a.set("c", 1);
  static_a.set("l", 4);
  SessionResult fixed = run_fixed_session(setup, static_a, schedule);
  EXPECT_LT(adaptive.total_time, fixed.total_time);
}

TEST(VizAdapt, EmptyDatabaseThrows) {
  const perfdb::PerfDatabase empty(viz_app_spec().resource_axes(),
                                   viz_app_spec().metrics());
  EXPECT_THROW(run_adaptive_session(small_setup(), empty,
                                    {adapt::minimize("transmit_time")}),
               std::runtime_error);
}

TEST(VizAdapt, NoAdaptationUnderSteadyResources) {
  WorldSetup setup = small_setup();
  setup.image_count = 4;
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  SessionResult result = run_adaptive_session(setup, small_db(), {pref});
  EXPECT_TRUE(result.adaptations.empty());
}

}  // namespace
}  // namespace avf::viz
