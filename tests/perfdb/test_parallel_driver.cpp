// Determinism contract of the parallel profiling pipeline: profile() at
// any thread count must assemble a database whose save() bytes are
// bit-for-bit identical to the threads = 1 run, and refinement's budgeted
// suggestion picks must not depend on thread count or sort internals.
#include "perfdb/driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "perfdb/sensitivity.hpp"
#include "viz/world.hpp"

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

QosVector model(const ConfigPoint& config, const ResourcePoint& at) {
  double cpu = at[0], bw = at[1];
  int mode = config.get("mode");
  QosVector q;
  double t = 3.0 / cpu + 1e6 / bw + config.get("level");
  if (mode == 1 && cpu < 0.45) t *= 30.0;  // knee -> refinement targets
  q.set("time", t);
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

TEST(ParallelDriver, MatchesSerialBytesAtAnyThreadCount) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.refinement_rounds = 2;
  options.sensitivity_threshold = 0.4;
  options.max_suggestions_per_round = 8;

  ProfilingDriver serial(
      [](const ConfigPoint& c, const ResourcePoint& p) { return model(c, p); },
      options);
  const std::string want = save_bytes(serial.profile(spec, kGrid));

  for (std::size_t threads : {1u, 2u, 3u, 4u, 0u}) {
    options.threads = threads;
    ProfilingDriver driver(
        [](const ConfigPoint& c, const ResourcePoint& p) {
          return model(c, p);
        },
        options);
    EXPECT_EQ(save_bytes(driver.profile(spec, kGrid)), want)
        << "threads=" << threads;
  }
}

TEST(ParallelDriver, RunFactoryMakesOneContextPerWorker) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.threads = 3;
  options.refinement_rounds = 2;
  std::atomic<int> contexts{0};
  std::atomic<int> runs{0};
  ProfilingDriver driver(
      [&]() -> ProfilingDriver::RunFn {
        ++contexts;
        return [&](const ConfigPoint& c, const ResourcePoint& p) {
          ++runs;
          return model(c, p);
        };
      },
      options);
  (void)driver.profile(spec, kGrid);
  // One RunFn per worker (the calling thread never runs an index), hired
  // once for the base sweep and both refinement rounds.
  EXPECT_EQ(contexts.load(), 3);
  EXPECT_EQ(runs.load(), 85);
}

TEST(ParallelDriver, RunExceptionPropagatesAndNothingCommits) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.threads = 4;
  ProfilingDriver driver(
      [](const ConfigPoint& c, const ResourcePoint& p) -> QosVector {
        if (c.get("mode") == 2 && p[0] == 0.5) {
          throw std::runtime_error("testbed crashed");
        }
        return model(c, p);
      },
      options);
  EXPECT_THROW((void)driver.profile(spec, kGrid), std::runtime_error);
}

// Regression: refinement picks were non-deterministic when several
// suggestions tied on relative_change (std::sort with a strength-only
// comparator).  With a model whose knee produces identical relative jumps
// for several configs and a budget smaller than the suggestion count, the
// chosen midpoints must be the same set on every run.
TEST(ParallelDriver, RefinePicksAreDeterministicUnderTies) {
  AppSpec spec = make_spec();
  ProfilingDriver::Options options;
  options.sensitivity_threshold = 0.05;  // nearly everything is "steep"
  options.max_suggestions_per_round = 3;  // force tie-breaking to matter
  options.refinement_rounds = 1;

  auto run_once = [&](std::size_t threads) {
    options.threads = threads;
    // Ties: every (mode, level) shares the same analytic profile, so each
    // midpoint suggestion appears with the same strength for all six
    // configurations.
    ProfilingDriver driver(
        [](const ConfigPoint& c, const ResourcePoint& p) {
          QosVector q;
          q.set("time", 10.0 / p[0] + 1e6 / p[1]);
          q.set("quality", 2.0);
          (void)c;
          return q;
        },
        options);
    return save_bytes(driver.profile(spec, kGrid));
  };

  const std::string first = run_once(1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(run_once(1), first) << "serial attempt " << attempt;
    EXPECT_EQ(run_once(4), first) << "parallel attempt " << attempt;
  }
}

TEST(ParallelDriver, SensitivityOrderIsTotal) {
  AppSpec spec = make_spec();
  ProfilingDriver driver(
      [](const ConfigPoint& c, const ResourcePoint& p) { return model(c, p); });
  PerfDatabase db = driver.profile(spec, kGrid);
  auto serial = sensitivity_analysis(db, 0.05, 1);
  auto parallel = sensitivity_analysis(db, 0.05, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].config, parallel[i].config) << i;
    EXPECT_EQ(serial[i].point, parallel[i].point) << i;
    EXPECT_EQ(serial[i].axis, parallel[i].axis) << i;
    EXPECT_EQ(serial[i].metric, parallel[i].metric) << i;
    EXPECT_EQ(serial[i].relative_change, parallel[i].relative_change) << i;
  }
}

// End-to-end on the real application: a small viz-world grid profiled in
// parallel must byte-match the serial build (each run spins up a full
// simulator + sandboxes + wavelet/codec pipeline, so this also exercises
// the shared caches under concurrency).
TEST(ParallelDriver, VizDatabaseMatchesSerial) {
  viz::WorldSetup base;
  base.image_size = 128;  // keep each simulated download cheap
  base.image_count = 1;
  std::vector<double> cpu_grid{0.4, 1.0};
  std::vector<double> bw_grid{100e3, 800e3};

  PerfDatabase serial =
      viz::build_viz_database(base, cpu_grid, bw_grid, 0, 1);
  PerfDatabase parallel =
      viz::build_viz_database(base, cpu_grid, bw_grid, 0, 4);
  EXPECT_EQ(save_bytes(parallel), save_bytes(serial));
}

}  // namespace
}  // namespace avf::perfdb
