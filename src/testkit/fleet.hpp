// Fleet runner: N adaptive sessions in one simulator, built to measure the
// *adaptation* hot path at scale (bench/micro_fleet).
//
// Where scenario.hpp wires one full request/reply pipeline, the fleet
// strips the application to its adaptation skeleton: every session owns a
// complete scheduler + monitor + steering + controller stack against one
// shared analytic performance database, observes the injected ground truth
// of one shared link (and its own CPU share) on a fixed cadence, and
// reconfigures at observation boundaries.  No per-session protocol traffic
// — the simulated work *is* the monitor → trigger → re-select → steer loop,
// so wall clock measures the fleet decision path and nothing else.
//
// Sessions arrive in waves.  Sessions within a wave are exact replicas on
// identical schedules: they observe the same values at the same simulated
// times, so their windowed estimates — and therefore their scheduler
// queries — are bit-identical.  With a shared adapt::DecisionCache attached
// the first session in a wave evaluates the candidate set and the rest hit
// the memo; without one, every session re-evaluates.  Both modes produce
// byte-identical decision traces (the cache is exact by construction),
// which decision_fingerprint() witnesses.
//
// Deterministic: a pure function of FleetOptions.  Same options, same
// fingerprint, at any session count, cached or not.
#pragma once

#include <cstdint>
#include <memory>

#include "adapt/controller.hpp"
#include "adapt/decision_cache.hpp"
#include "adapt/monitor.hpp"
#include "adapt/preferences.hpp"
#include "perfdb/database.hpp"
#include "testkit/fault_injector.hpp"
#include "tunable/app_spec.hpp"

namespace avf::testkit {

/// The fleet application's tunability specification: q in {1..8} (payload
/// quality), c in {0,1,2} (codec ladder), r in {0..3} (refinement passes) —
/// 96 configurations, large enough that re-evaluating the candidate set
/// dominates an uncached decision.  Metrics `response` (lower better) and
/// `quality` (higher better); resource axes cpu_share and net_bps.
const tunable::AppSpec& fleet_app_spec();

/// Closed-form cost model behind the analytic fleet database.
struct FleetModel {
  double cpu_speed = 450e6;     ///< ops/s
  double nominal_bw = 1e6;      ///< bytes/s link capacity
  double link_latency = 0.005;  ///< s, one way
  double server_ops = 1.5e6;    ///< per task

  double ops(const tunable::ConfigPoint& config) const;
  double reply_bytes(const tunable::ConfigPoint& config) const;
  double response(const tunable::ConfigPoint& config, double cpu_share,
                  double net_bps) const;
  double quality(const tunable::ConfigPoint& config) const;
};

/// Analytic performance database for fleet_app_spec() over a fixed
/// 5x5 (cpu_share x net_bps) grid: 2400 records.
perfdb::PerfDatabase build_fleet_database(const FleetModel& model = {});

/// The fleet's preference list: "interactive" (response <= 0.7 s, maximize
/// quality) with an unconstrained "fastest" fallback.
adapt::PreferenceList fleet_preferences();

/// The churn the benchmarks run under: a link flap square-wave early in the
/// run and a sustained bandwidth collapse later, both ending before
/// `duration` so the fleet re-converges.  Only link faults — the fleet's
/// injector has no victim sandbox, and absent targets are skipped.
FaultSchedule fleet_churn_schedule(const FleetModel& model, double duration);

struct FleetOptions {
  int sessions = 64;
  /// Arrival waves: sessions are dealt into `waves` contiguous groups;
  /// group w starts at w * wave_interval.  Sessions in one group are exact
  /// replicas on identical schedules.
  int waves = 8;
  double wave_interval = 0.3;     ///< s between wave starts
  double session_duration = 8.0;  ///< per-session monitoring lifetime
  /// Observation/task-boundary cadence.  Deliberately coarser than the
  /// controller's check interval so quiet ticks between observations are
  /// provable no-ops (the change-driven-tick fast path).
  double observe_interval = 0.5;
  double duration = 12.0;  ///< simulation horizon (>= last session end)
  FleetModel model{};
  adapt::MonitoringAgent::Options monitor{
      .window = 1.0, .trigger_threshold = 0.25, .consecutive_required = 2};
  adapt::AdaptationController::Options controller{.check_interval = 0.25};
  double switch_hysteresis = 0.05;
  /// Shared decision memo for every session's scheduler; null = each
  /// session evaluates the candidate set itself (the per-session baseline).
  std::shared_ptr<adapt::DecisionCache> decision_cache;
};

struct FleetResult {
  std::size_t sessions = 0;
  std::size_t tasks = 0;          ///< observation/task boundaries, summed
  std::size_t checks = 0;         ///< controller ticks, summed
  std::size_t ticks_skipped = 0;  ///< change-driven no-op ticks, summed
  std::size_t triggers = 0;       ///< monitor out-of-range firings, summed
  std::size_t adaptations = 0;    ///< config changes, summed
  /// Decision-cache counters for the run (all zero when uncached).
  adapt::DecisionCache::Stats cache;
  /// FNV-1a over every session's decision trace: initial config, each
  /// adaptation event (time/from/to/preference/estimate bits), final
  /// config, task count.  The byte-equality witness for cached-vs-uncached
  /// and run-twice determinism.
  std::uint64_t decision_fingerprint = 0;
  double total_time = 0.0;  ///< simulated seconds
};

/// Run the fleet to completion.  Deterministic: a pure function of
/// `options` (see file comment).
FleetResult run_fleet(const FleetOptions& options);

}  // namespace avf::testkit
