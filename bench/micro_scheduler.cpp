// Micro-benchmarks: full scheduler decisions on a large performance
// database — the per-tick cost of the run-time adaptation loop (paper §6.2).
//
// Three regimes:
//   Select/MovingRes   — every decision at a fresh resource point: the
//                        indexed prediction path end to end, incl.
//                        candidate pruning.
//   Select/StableRes   — repeated decisions at the same point, the common
//                        steady-state case.
//   SelectWithIncumbent — hysteresis-biased re-decision, which shares the
//                        candidate vector with the fresh selection instead
//                        of re-querying the database for the incumbent.
#include <benchmark/benchmark.h>

#include <vector>

#include "adapt/preferences.hpp"
#include "adapt/scheduler.hpp"
#include "perfdb/database.hpp"

namespace {

using namespace avf;
using adapt::ResourceScheduler;
using adapt::UserPreference;
using perfdb::PerfDatabase;
using tunable::ConfigPoint;

tunable::MetricSchema schema() {
  tunable::MetricSchema s;
  s.add("transmit_time", tunable::Direction::kLowerBetter);
  s.add("response_time", tunable::Direction::kLowerBetter);
  s.add("resolution", tunable::Direction::kHigherBetter);
  return s;
}

PerfDatabase build_db(int configs, int grid) {
  std::vector<perfdb::PerfRecord> records;
  for (int c = 0; c < configs; ++c) {
    ConfigPoint config;
    config.set("mode", c);
    for (int i = 0; i < grid; ++i) {
      for (int j = 0; j < grid; ++j) {
        tunable::QosVector q;
        double cpu = (i + 1.0) / grid;
        double bw = (j + 1.0) * 100e3;
        q.set("transmit_time", 10.0 / cpu + 1e6 / bw + 0.01 * c);
        q.set("response_time", 1.0 / cpu);
        q.set("resolution", 4.0 - c % 3);
        records.push_back(perfdb::PerfRecord{config, {cpu, bw}, q});
      }
    }
  }
  PerfDatabase db({"cpu_share", "net_bps"}, schema());
  db.insert_batch(records);
  return db;
}

adapt::PreferenceList preferences() {
  UserPreference strict = adapt::minimize("transmit_time");
  strict.constraints.push_back({.metric = "resolution", .min = 4.0});
  UserPreference fallback = adapt::minimize("transmit_time");
  return {strict, fallback};
}

constexpr int kConfigs = 64;
constexpr int kGrid = 16;

void BM_SelectMovingResources(benchmark::State& state) {
  PerfDatabase db = build_db(kConfigs, kGrid);
  ResourceScheduler scheduler(db, preferences());
  double x = 0.0;
  for (auto _ : state) {
    // Shift the point each iteration, sweeping the grid cells.
    auto decision = scheduler.select({0.30 + x, 275e3 * (1.0 + x)});
    x = x > 0.2 ? 0.0 : x + 1e-4;
    benchmark::DoNotOptimize(decision->predicted);
  }
  state.SetItemsProcessed(state.iterations() * kConfigs);
}
BENCHMARK(BM_SelectMovingResources);

void BM_SelectStableResources(benchmark::State& state) {
  PerfDatabase db = build_db(kConfigs, kGrid);
  ResourceScheduler scheduler(db, preferences());
  for (auto _ : state) {
    auto decision = scheduler.select({0.37, 275e3});
    benchmark::DoNotOptimize(decision->predicted);
  }
  state.SetItemsProcessed(state.iterations() * kConfigs);
}
BENCHMARK(BM_SelectStableResources);

void BM_SelectWithIncumbent(benchmark::State& state) {
  PerfDatabase db = build_db(kConfigs, kGrid);
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.10;
  ResourceScheduler scheduler(db, preferences(), options);
  ConfigPoint incumbent;
  incumbent.set("mode", 3);
  for (auto _ : state) {
    auto decision = scheduler.select_with_incumbent({0.37, 275e3}, incumbent);
    benchmark::DoNotOptimize(decision->predicted);
  }
  state.SetItemsProcessed(state.iterations() * kConfigs);
}
BENCHMARK(BM_SelectWithIncumbent);

}  // namespace

BENCHMARK_MAIN();
