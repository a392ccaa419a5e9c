// ScenarioRunner: one fully-wired adaptive pipeline under fault injection.
//
// The scenario application is a synthetic request/reply pipeline (client
// computes, asks the server for a payload, measures what it actually got)
// whose cost model is closed-form — so its performance database is built
// analytically instead of profiled, and a 10-simulated-second scenario runs
// in well under a millisecond of real time.  That speed is what makes the
// seeded soak (50+ scenarios per run, every one under the full invariant
// suite) viable inside ASan/UBSan CI.
//
// Tunables: q in {1,2,3,4} (payload quality; more bytes, more client CPU)
// and c in {0,1,2} (codec: none / lzw halves bytes at 1.75x CPU / bwt
// compresses 2.8x at 2.75x CPU — same ladder as the codec library).  Metrics:
// `response` (s per task, lower better) and `quality` (= q, higher better).
// Resource axes: cpu_share, net_bps — the same two the paper's Active
// Visualization experiments vary.
//
// Every run produces a TraceRecorder whose lines carry exact time bits;
// run_scenario(schedule, options) twice must yield byte-identical traces
// (the golden-trace determinism contract), and violations of any adaptation
// invariant are returned, never thrown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "adapt/monitor.hpp"
#include "adapt/preferences.hpp"
#include "perfdb/database.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/invariants.hpp"
#include "testkit/trace.hpp"
#include "tunable/app_spec.hpp"

namespace avf::testkit {

/// The scenario application's tunability specification (see file comment).
const tunable::AppSpec& testkit_app_spec();

/// Closed-form cost model shared by the analytic performance database and
/// the simulated application itself.
struct AppModel {
  double cpu_speed = 450e6;      ///< ops/s, both hosts
  double nominal_bw = 1e6;       ///< bytes/s link capacity
  double link_latency = 0.005;   ///< s, one way
  double server_ops = 1.5e6;     ///< per request

  double ops(const tunable::ConfigPoint& config) const;
  double reply_bytes(const tunable::ConfigPoint& config) const;
  /// Predicted per-task response time at (cpu_share, net_bps).
  double response(const tunable::ConfigPoint& config, double cpu_share,
                  double net_bps) const;
};

/// Analytic performance database over a fixed resource grid, profiled
/// through perfdb::ProfilingDriver with the closed-form model as its run.
perfdb::PerfDatabase build_testkit_database(const AppModel& model = {});

/// Preference templates: 0 = latency-constrained maximize-quality with an
/// unconstrained minimize-latency fallback; 1 = both preferences carry
/// constraints, so extreme degradation exercises the scheduler's
/// best-effort fall-through.
adapt::PreferenceList testkit_preferences(int template_id);

struct ScenarioOptions {
  double duration = 10.0;        ///< client keeps starting tasks until here
  AppModel model{};
  adapt::MonitoringAgent::Options monitor{
      .window = 1.0, .trigger_threshold = 0.25, .consecutive_required = 2};
  adapt::AdaptationController::Options controller{.check_interval = 0.25};
  double switch_hysteresis = 0.05;
  int preference_template = 0;
  std::uint64_t injector_seed = 1;  ///< per-message drop/delay/noise draws
  double retry_timeout = 1.0;       ///< initial; doubles per retry
  // Invariant-checker knobs.
  bool check_invariants = true;
  int reconverge_checks = 12;       ///< K in the re-convergence invariant
  double accuracy_tolerance = 0.10;
  double accuracy_settle = 2.0;
};

struct ScenarioResult {
  std::vector<Violation> violations;
  TraceRecorder trace;
  std::size_t tasks = 0;
  std::size_t retries = 0;
  std::size_t checks = 0;
  std::size_t accuracy_probes = 0;
  std::vector<adapt::AdaptationController::AdaptationEvent> adaptations;
  tunable::ConfigPoint initial_config;
  tunable::ConfigPoint final_config;
  double total_time = 0.0;

  bool ok() const { return violations.empty(); }
};

/// Run one scenario to completion.  Deterministic: a pure function of
/// (schedule, options).
ScenarioResult run_scenario(const FaultSchedule& schedule,
                            const ScenarioOptions& options = {});

/// Limits matching `options` so random faults clear early enough for the
/// re-convergence grace period to fit before `duration`.
ScheduleLimits limits_for(const ScenarioOptions& options);

struct SoakReport {
  std::size_t scenarios = 0;
  std::size_t tasks = 0;
  std::size_t adaptations = 0;
  std::size_t accuracy_probes = 0;
  std::vector<std::uint64_t> seeds;  ///< per-scenario seeds, in run order
  /// Violations annotated with the seed of the scenario that produced them.
  std::vector<std::pair<std::uint64_t, Violation>> violations;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Derive `count` per-scenario seeds from `base_seed` and run each random
/// scenario under the full invariant suite.  The preference template and
/// fault schedule both derive from the per-scenario seed.
SoakReport run_soak(std::uint64_t base_seed, int count,
                    const ScenarioOptions& base_options = {});

}  // namespace avf::testkit
