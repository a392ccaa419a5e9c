// micro_fleet — fleet-scale adaptation hot path.
//
// Runs N adaptive sessions (testkit::run_fleet) under the standard churn
// schedule in two lanes:
//
//   baseline : every session evaluates the candidate set itself and ticks
//              unconditionally (decision cache off, change-driven ticks
//              off) — the per-session pre-optimization behavior;
//   cached   : one shared adapt::DecisionCache across all sessions plus
//              change-driven ticks.
//
// Predictions are exact in both lanes, so their decision traces are
// provably byte-identical; the benchmark *checks* that (decision
// fingerprints must match between lanes and across a repeated cached run)
// and then gates on the speedup: at the largest scale the cached lane must
// be at least AVF_FLEET_MIN_SPEEDUP (default 5, env-overridable) times
// faster.  Exits non-zero when any check fails, so CI can run it as a perf
// smoke test.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "testkit/fleet.hpp"

namespace {

struct LaneRun {
  avf::testkit::FleetResult result;
  double wall_s = 0.0;
};

LaneRun run_lane(int sessions, bool cached) {
  avf::testkit::FleetOptions options;
  options.sessions = sessions;
  options.waves = 10;
  if (cached) {
    options.decision_cache = std::make_shared<avf::adapt::DecisionCache>();
  } else {
    options.controller.change_driven_ticks = false;
  }
  const auto t0 = std::chrono::steady_clock::now();
  LaneRun lane;
  lane.result = avf::testkit::run_fleet(options);
  const auto t1 = std::chrono::steady_clock::now();
  lane.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return lane;
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atof(value) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atoi(value) : fallback;
}

}  // namespace

int main() {
  using avf::bench::JsonBenchCase;

  const double min_speedup = env_double("AVF_FLEET_MIN_SPEEDUP", 5.0);
  // The scales to run; the speedup gate applies to the largest one.
  std::vector<int> scales{env_int("AVF_FLEET_SESSIONS_SMALL", 1000),
                          env_int("AVF_FLEET_SESSIONS_LARGE", 10000)};

  avf::bench::figure_header(
      "micro_fleet", "fleet-scale adaptation: shared decision cache + "
                     "change-driven ticks vs per-session baseline");

  // Warm up allocators and static spec/database state outside the timers.
  (void)run_lane(50, true);

  std::vector<JsonBenchCase> cases;
  bool ok = true;
  double gated_speedup = 0.0;

  for (std::size_t i = 0; i < scales.size(); ++i) {
    const int sessions = scales[i];
    const LaneRun baseline = run_lane(sessions, false);
    const LaneRun cached = run_lane(sessions, true);
    const LaneRun cached2 = run_lane(sessions, true);  // determinism witness

    const double speedup = cached.wall_s > 0.0
                               ? baseline.wall_s / cached.wall_s
                               : 0.0;
    const auto& r = cached.result;
    const double hit_rate =
        r.cache.hits + r.cache.misses > 0
            ? static_cast<double>(r.cache.hits) /
                  static_cast<double>(r.cache.hits + r.cache.misses)
            : 0.0;

    std::cout << "sessions=" << sessions
              << "  baseline=" << baseline.wall_s << "s"
              << "  cached=" << cached.wall_s << "s"
              << "  speedup=" << speedup
              << "\n  cache hits=" << r.cache.hits
              << " misses=" << r.cache.misses
              << " hit_rate=" << hit_rate
              << "  ticks_skipped=" << r.ticks_skipped << "/" << r.checks
              << "  adaptations=" << r.adaptations
              << "  fingerprint=" << std::hex << r.decision_fingerprint
              << std::dec << "\n";

    if (cached.result.decision_fingerprint !=
        baseline.result.decision_fingerprint) {
      std::cout << "FAIL: cached and baseline decision fingerprints differ "
                   "at sessions="
                << sessions << "\n";
      ok = false;
    }
    if (cached.result.decision_fingerprint !=
        cached2.result.decision_fingerprint) {
      std::cout << "FAIL: cached run is not deterministic at sessions="
                << sessions << "\n";
      ok = false;
    }
    if (r.cache.hits == 0) {
      std::cout << "FAIL: decision cache recorded no hits\n";
      ok = false;
    }
    if (r.ticks_skipped == 0) {
      std::cout << "FAIL: change-driven ticks skipped nothing\n";
      ok = false;
    }
    if (r.adaptations == 0) {
      std::cout << "FAIL: churn schedule caused no adaptations\n";
      ok = false;
    }
    if (i + 1 == scales.size()) gated_speedup = speedup;

    for (const bool is_cached : {false, true}) {
      const LaneRun& lane = is_cached ? cached : baseline;
      JsonBenchCase c;
      c.label = std::string("BM_Fleet/") + std::to_string(sessions) +
                (is_cached ? "/cached" : "/baseline");
      c.wall_ns = lane.wall_s * 1e9;
      c.extra["sessions"] = sessions;
      c.extra["tasks"] = static_cast<double>(lane.result.tasks);
      c.extra["checks"] = static_cast<double>(lane.result.checks);
      c.extra["ticks_skipped"] =
          static_cast<double>(lane.result.ticks_skipped);
      c.extra["adaptations"] = static_cast<double>(lane.result.adaptations);
      c.extra["cache_hits"] = static_cast<double>(lane.result.cache.hits);
      c.extra["cache_misses"] = static_cast<double>(lane.result.cache.misses);
      c.extra["cache_invalidations"] =
          static_cast<double>(lane.result.cache.invalidations);
      if (is_cached) {
        c.extra["speedup"] = speedup;
        c.extra["hit_rate"] = hit_rate;
      }
      cases.push_back(std::move(c));
    }
  }

  if (gated_speedup < min_speedup) {
    std::cout << "FAIL: speedup " << gated_speedup << "x at "
              << scales.back() << " sessions is below the "
              << min_speedup << "x gate (AVF_FLEET_MIN_SPEEDUP)\n";
    ok = false;
  } else {
    std::cout << "speedup gate: " << gated_speedup << "x >= "
              << min_speedup << "x at " << scales.back() << " sessions\n";
  }

  avf::bench::write_bench_json("micro_fleet", cases);
  std::cout << (ok ? "micro_fleet: OK\n" : "micro_fleet: FAILED\n");
  return ok ? 0 : 1;
}
