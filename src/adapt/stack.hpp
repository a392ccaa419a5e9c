// AdaptationStack — the run-time subsystem of one session as one unit
// (paper §6, Figure 1).  Every adaptive session in the tree is brought up
// here, in one fixed order: scheduler, monitor, select(initial), throw if
// there is no decision, steering agent on that decision, controller,
// configure(initial), start().  configure() selects again; with a shared
// DecisionCache that second lookup is a hit, so cache hit/miss counts
// depend on this order.
#pragma once

#include <vector>

#include "adapt/controller.hpp"
#include "adapt/monitor.hpp"
#include "adapt/preferences.hpp"
#include "adapt/scheduler.hpp"
#include "adapt/steering.hpp"
#include "perfdb/database.hpp"
#include "sim/simulator.hpp"
#include "tunable/app_spec.hpp"

namespace avf::adapt {

struct AdaptationStack {
  struct Options {
    MonitoringAgent::Options monitor{};
    ResourceScheduler::Options scheduler{};
    AdaptationController::Options controller{};
  };

  /// Build and start the stack for `spec` against `db`, configured for the
  /// static resource view `initial_resources` (one value per resource axis
  /// of `spec`).  Throws std::runtime_error, before any controller exists,
  /// when `db` yields no decision (e.g. it has no records).
  AdaptationStack(sim::Simulator& sim, const tunable::AppSpec& spec,
                  const perfdb::PerfDatabase& db, PreferenceList preferences,
                  const std::vector<double>& initial_resources,
                  const Options& options);

  // Declaration order is construction order (see the file comment).  The
  // controller refers to the other members, so the stack never moves.
  ResourceScheduler scheduler;
  MonitoringAgent monitor;
  SteeringAgent steering;
  AdaptationController controller;
  /// The configuration the initial automatic configuration selected.
  tunable::ConfigPoint initial_config;
};

}  // namespace avf::adapt
