// Acceptance suite for decision-tree-guided adaptive profiling, validated
// against the exhaustive oracle (profile() at one thread / the
// closed-form run function itself): measured cells must be bit-exact,
// predicted cells within a relative-error bound, the full-budget case must
// degenerate to the exhaustive database byte-for-byte, and the whole run
// must be byte-identical at any thread count.
#include "perfdb/driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace avf::perfdb {
namespace {

using tunable::AppSpec;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::QosVector;

AppSpec make_spec() {
  AppSpec spec("synthetic");
  spec.space().add_parameter("mode", {0, 1, 2});
  spec.space().add_parameter("level", {0, 1});
  spec.metrics().add("time", Direction::kLowerBetter);
  spec.metrics().add("quality", Direction::kHigherBetter);
  spec.add_resource_axis("cpu");
  spec.add_resource_axis("bw");
  return spec;
}

// Piecewise-constant on axis-aligned boxes — the surface family regression
// trees represent exactly, so prediction error measures the *sampling*
// quality, not a model-class mismatch.
QosVector model(const ConfigPoint& config, const ResourcePoint& at) {
  double cpu = at[0], bw = at[1];
  int mode = config.get("mode");
  QosVector q;
  q.set("time", (cpu < 0.45 ? 10.0 : 2.0) * (1.0 + mode) +
                    (bw < 100e3 ? 5.0 : 1.0) + config.get("level"));
  q.set("quality", 1.0 + mode);
  return q;
}

std::string save_bytes(const PerfDatabase& db) {
  std::ostringstream out;
  db.save(out);
  return out.str();
}

const std::vector<std::vector<double>> kGrid = {{0.2, 0.5, 1.0},
                                                {50e3, 200e3, 800e3}};
constexpr std::size_t kCells = 6 * 9;  // configs x grid points

ProfilingDriver make_driver(std::size_t threads = 1) {
  ProfilingDriver::Options options;
  options.threads = threads;
  return ProfilingDriver(
      [](const ConfigPoint& c, const ResourcePoint& p) { return model(c, p); },
      options);
}

ProfilingDriver::AdaptiveOptions adaptive_options(std::size_t budget,
                                                  std::uint64_t seed) {
  ProfilingDriver::AdaptiveOptions a;
  a.budget = budget;
  a.seed = seed;
  a.round_size = 6;
  return a;
}

TEST(AdaptiveDriver, MeasuredCellsBitExactPredictionsWithinBound) {
  AppSpec spec = make_spec();
  ProfilingDriver driver = make_driver();
  // The acceptance bound is statistical, not bit-exact, and configurable
  // per budget: tighter budgets tolerate larger worst-case misses.  Each
  // (seed, budget) run is deterministic, so these assertions are stable.
  struct Bound {
    std::size_t budget;
    double max_rel_err;
    double mean_rel_err;
  };
  const Bound kBounds[] = {{18, 0.95, 0.30},   // 1/3 of the cells
                           {27, 0.60, 0.20},   // half
                           {40, 0.60, 0.20}};  // 3/4
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const Bound& bound : kBounds) {
      const std::size_t budget = bound.budget;
      PerfDatabase db =
          driver.profile_adaptive(spec, kGrid, adaptive_options(budget, seed));
      EXPECT_EQ(db.size(), kCells);
      // The budget is a cap, not a quota: the run may stop early once every
      // unmeasured cell sits in a pure leaf.
      EXPECT_LE(kCells - db.predicted_count(), budget);
      EXPECT_GT(db.predicted_count(), 0u);
      double err_sum = 0.0;
      std::size_t predicted = 0;
      for (const ConfigPoint& config : spec.space().enumerate()) {
        for (const PerfRecord& r : db.records(config)) {
          QosVector oracle = model(config, r.resources);
          for (const auto& m : spec.metrics().metrics()) {
            double got = r.quality.get(m.name);
            double want = oracle.get(m.name);
            if (r.provenance == Provenance::kMeasured) {
              EXPECT_EQ(got, want)  // sandbox-measured: bit-exact
                  << m.name << " seed=" << seed << " budget=" << budget;
            } else {
              double rel = std::abs(got - want) / std::abs(want);
              EXPECT_LE(rel, bound.max_rel_err)
                  << m.name << " seed=" << seed << " budget=" << budget;
              err_sum += rel;
              ++predicted;
            }
          }
        }
      }
      ASSERT_GT(predicted, 0u);
      EXPECT_LE(err_sum / static_cast<double>(predicted), bound.mean_rel_err)
          << "seed=" << seed << " budget=" << budget;
    }
  }
}

TEST(AdaptiveDriver, FullBudgetDegeneratesToExhaustiveBytes) {
  AppSpec spec = make_spec();
  ProfilingDriver driver = make_driver();
  const std::string want = save_bytes(driver.profile(spec, kGrid));
  for (std::size_t budget : {kCells, kCells + 1000}) {
    PerfDatabase db =
        driver.profile_adaptive(spec, kGrid, adaptive_options(budget, 1));
    EXPECT_EQ(db.predicted_count(), 0u);
    EXPECT_EQ(save_bytes(db), want) << "budget=" << budget;
  }
}

TEST(AdaptiveDriver, ByteIdenticalAtAnyThreadCount) {
  AppSpec spec = make_spec();
  const std::string want = save_bytes(make_driver(1).profile_adaptive(
      spec, kGrid, adaptive_options(20, 3)));
  EXPECT_NE(want.find("origin"), std::string::npos);
  for (std::size_t threads : {2u, 3u, 4u, 0u}) {
    EXPECT_EQ(save_bytes(make_driver(threads).profile_adaptive(
                  spec, kGrid, adaptive_options(20, 3))),
              want)
        << "threads=" << threads;
  }
}

TEST(AdaptiveDriver, SeedSelectsADifferentSample) {
  AppSpec spec = make_spec();
  ProfilingDriver driver = make_driver();
  EXPECT_NE(save_bytes(driver.profile_adaptive(spec, kGrid,
                                               adaptive_options(20, 1))),
            save_bytes(driver.profile_adaptive(spec, kGrid,
                                               adaptive_options(20, 2))));
}

TEST(AdaptiveDriver, TinyBudgetsStillFillTheWholeGrid) {
  AppSpec spec = make_spec();
  ProfilingDriver driver = make_driver();
  EXPECT_THROW(
      driver.profile_adaptive(spec, kGrid, adaptive_options(0, 1)),
      std::invalid_argument);
  for (std::size_t budget : {1u, 3u}) {
    PerfDatabase db =
        driver.profile_adaptive(spec, kGrid, adaptive_options(budget, 1));
    EXPECT_EQ(db.size(), kCells);
    EXPECT_GE(db.predicted_count(), kCells - budget);
    EXPECT_LT(db.predicted_count(), kCells);  // at least one measured cell
  }
}

TEST(AdaptiveDriver, BudgetBelowInitialSampleIsClampedNotLooped) {
  AppSpec spec = make_spec();
  std::atomic<std::size_t> calls{0};
  ProfilingDriver driver(
      [&](const ConfigPoint& c, const ResourcePoint& p) {
        ++calls;
        return model(c, p);
      },
      ProfilingDriver::Options{});
  ProfilingDriver::AdaptiveOptions a = adaptive_options(5, 1);
  a.initial_fraction = 1.0;  // the seeded sample alone must respect budget
  PerfDatabase db = driver.profile_adaptive(spec, kGrid, a);
  EXPECT_EQ(calls.load(), 5u);
  EXPECT_EQ(db.predicted_count(), kCells - 5);
}

TEST(AdaptiveDriver, ConstantSurfaceStopsWithoutBurningBudget) {
  AppSpec spec = make_spec();
  std::atomic<std::size_t> calls{0};
  ProfilingDriver driver(
      [&](const ConfigPoint&, const ResourcePoint&) {
        ++calls;
        QosVector q;
        q.set("time", 3.0);
        q.set("quality", 1.0);
        return q;
      },
      ProfilingDriver::Options{});
  PerfDatabase db =
      driver.profile_adaptive(spec, kGrid, adaptive_options(30, 1));
  // Zero-variance trees offer no leaf worth refining: the run must
  // terminate after the initial sample (no loop, no wasted sandbox runs).
  EXPECT_EQ(calls.load(), 15u);  // initial_fraction 0.5 of budget 30
  EXPECT_EQ(db.size(), kCells);
  EXPECT_EQ(db.predicted_count(), kCells - 15);
  for (const ConfigPoint& config : db.configs()) {
    for (const PerfRecord& r : db.records(config)) {
      EXPECT_EQ(r.quality.get("time"), 3.0);     // predictions are exact
      EXPECT_EQ(r.quality.get("quality"), 1.0);  // for a constant surface
    }
  }
}

TEST(AdaptiveDriver, SingleResourceAxisAndSingleParameter) {
  AppSpec spec("thin");
  spec.space().add_parameter("q", {1, 2, 3});
  spec.metrics().add("time", Direction::kLowerBetter);
  spec.add_resource_axis("cpu");
  ProfilingDriver driver(
      [](const ConfigPoint& c, const ResourcePoint& p) {
        QosVector q;
        q.set("time", c.get("q") / p[0]);
        return q;
      },
      ProfilingDriver::Options{});
  const std::vector<std::vector<double>> grid = {{0.1, 0.25, 0.5, 0.75, 1.0}};
  PerfDatabase db =
      driver.profile_adaptive(spec, grid, adaptive_options(8, 1));
  EXPECT_EQ(db.size(), 15u);
  EXPECT_GE(db.predicted_count(), 7u);
  EXPECT_LT(db.predicted_count(), 15u);
}

TEST(AdaptiveDriver, GuardInfeasibleRegionsAreNeverSampledOrPredicted) {
  AppSpec spec = make_spec();
  spec.space().add_guard("mode 2 excludes level 1", [](const ConfigPoint& p) {
    return !(p.get("mode") == 2 && p.get("level") == 1);
  });
  std::atomic<std::size_t> infeasible_runs{0};
  ProfilingDriver driver(
      [&](const ConfigPoint& c, const ResourcePoint& p) {
        if (c.get("mode") == 2 && c.get("level") == 1) ++infeasible_runs;
        return model(c, p);
      },
      ProfilingDriver::Options{});
  PerfDatabase db =
      driver.profile_adaptive(spec, kGrid, adaptive_options(20, 1));
  EXPECT_EQ(infeasible_runs.load(), 0u);
  EXPECT_EQ(db.configs().size(), 5u);  // 6 raw minus the guarded one
  for (const ConfigPoint& config : db.configs()) {
    EXPECT_TRUE(spec.space().valid(config)) << config.key();
  }
}

TEST(AdaptiveDriver, ModelOutPredictsExactlyWhatTheDatabaseStores) {
  AppSpec spec = make_spec();
  ProfilingDriver driver = make_driver();
  AdaptiveModel model_out;
  PerfDatabase db = driver.profile_adaptive(spec, kGrid,
                                            adaptive_options(20, 1),
                                            &model_out);
  ASSERT_EQ(model_out.feature_names.size(), 4u);
  EXPECT_EQ(model_out.feature_names[0], "level");  // params, name order
  EXPECT_EQ(model_out.feature_names[1], "mode");
  EXPECT_EQ(model_out.feature_names[2], "cpu");    // then resource axes
  EXPECT_EQ(model_out.feature_names[3], "bw");
  EXPECT_EQ(model_out.config_features, 2u);
  ASSERT_EQ(model_out.trees.size(), 2u);
  for (const ConfigPoint& config : db.configs()) {
    for (const PerfRecord& r : db.records(config)) {
      if (r.provenance != Provenance::kPredicted) continue;
      std::vector<double> f = model_out.features_of(config, r.resources);
      for (const auto& m : spec.metrics().metrics()) {
        EXPECT_EQ(r.quality.get(m.name), model_out.trees.at(m.name).predict(f));
      }
    }
  }
}

}  // namespace
}  // namespace avf::perfdb
