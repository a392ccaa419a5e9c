#include "perfdb/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace avf::perfdb {
namespace {

using tunable::AppSpec;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::QosVector;

AppSpec make_spec() {
  AppSpec spec("synthetic");
  spec.space().add_parameter("mode", {0, 1});
  spec.metrics().add("time", Direction::kLowerBetter);
  spec.add_resource_axis("cpu");
  return spec;
}

/// Analytic application model: mode 0 has a smooth profile, mode 1 has a
/// sharp knee below cpu = 0.4.
QosVector model(const ConfigPoint& config, const ResourcePoint& at) {
  double cpu = at[0];
  QosVector q;
  if (config.get("mode") == 0) {
    q.set("time", 10.0 / cpu);
  } else {
    q.set("time", cpu < 0.4 ? 500.0 : 5.0 / cpu);
  }
  return q;
}

TEST(Driver, ProfilesFullGrid) {
  AppSpec spec = make_spec();
  int runs = 0;
  ProfilingDriver driver([&](const ConfigPoint& c, const ResourcePoint& p) {
    ++runs;
    return model(c, p);
  });
  PerfDatabase db = driver.profile(spec, {{0.2, 0.5, 1.0}});
  EXPECT_EQ(runs, 6);  // 2 configs x 3 grid points
  EXPECT_EQ(db.size(), 6u);
  EXPECT_EQ(db.configs().size(), 2u);
  auto p = db.predict(ConfigPoint{{{"mode", 0}}}, {0.5});
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->get("time"), 20.0);
}

TEST(Driver, RefinementSamplesSteepRegions) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.refinement_rounds = 2;
  options.sensitivity_threshold = 0.5;
  std::vector<ResourcePoint> extra;
  ProfilingDriver driver(
      [&](const ConfigPoint& c, const ResourcePoint& p) {
        return model(c, p);
      },
      options);
  PerfDatabase db = driver.profile(spec, {{0.2, 0.6, 1.0}});
  // The knee of mode 1 lies between 0.2 and 0.6 -> refinement must have
  // added samples there.
  ConfigPoint mode1{{{"mode", 1}}};
  auto grid = db.grid_values(mode1, "cpu");
  EXPECT_GT(grid.size(), 3u);
  bool has_midpoint = false;
  for (double g : grid) {
    if (g > 0.2 && g < 0.6) has_midpoint = true;
  }
  EXPECT_TRUE(has_midpoint);
}

TEST(Driver, RefinementRespectsPerRoundCap) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.refinement_rounds = 1;
  options.sensitivity_threshold = 0.01;  // everything looks steep
  options.max_suggestions_per_round = 2;
  int runs = 0;
  ProfilingDriver driver(
      [&](const ConfigPoint& c, const ResourcePoint& p) {
        ++runs;
        return model(c, p);
      },
      options);
  (void)driver.profile(spec, {{0.2, 0.5, 1.0}});
  EXPECT_EQ(runs, 6 + 2);
}

TEST(Driver, RejectsBadGrids) {
  AppSpec spec = make_spec();
  ProfilingDriver driver(
      [&](const ConfigPoint& c, const ResourcePoint& p) {
        return model(c, p);
      });
  EXPECT_THROW((void)driver.profile(spec, {}), std::invalid_argument);
  EXPECT_THROW((void)driver.profile(spec, {{}}), std::invalid_argument);
  EXPECT_THROW((void)driver.profile(spec, {{0.5}, {1.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace avf::perfdb
