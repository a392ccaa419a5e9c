#include "testkit/invariants.hpp"

#include <cmath>

#include "util/fmt.hpp"

namespace avf::testkit {

void InvariantLog::report(sim::SimTime time, std::string invariant,
                          std::string detail) {
  violations_.push_back(
      Violation{time, std::move(invariant), std::move(detail)});
}

std::string InvariantLog::summary(std::size_t max_lines) const {
  if (violations_.empty()) return "all invariants held";
  std::string out =
      util::format("{} invariant violation(s):\n", violations_.size());
  std::size_t shown = 0;
  for (const Violation& v : violations_) {
    if (shown++ >= max_lines) {
      out += util::format("  ... and {} more\n", violations_.size() - shown + 1);
      break;
    }
    out += util::format("  t={:.4f} [{}] {}\n", v.time, v.invariant, v.detail);
  }
  return out;
}

TransitionPointChecker::TransitionPointChecker(sim::Simulator& sim,
                                               adapt::SteeringAgent& steering,
                                               InvariantLog& log,
                                               TraceRecorder* trace)
    : sim_(sim), steering_(steering), log_(log), trace_(trace) {
  steering_.set_on_applied([this](const tunable::ConfigPoint& from,
                                  const tunable::ConfigPoint& to) {
    ++applies_;
    if (!in_boundary_) {
      log_.report(sim_.now(), "transition-point",
                  util::format("config {} -> {} applied outside a task "
                               "boundary",
                               from.key(), to.key()));
    }
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), "apply",
                     util::format("{} -> {}", from.key(), to.key()));
    }
  });
}

TransitionPointChecker::~TransitionPointChecker() {
  steering_.set_on_applied(nullptr);
}

void check_adaptation_events(
    const std::vector<adapt::AdaptationController::AdaptationEvent>& events,
    const perfdb::PerfDatabase& db, const adapt::PreferenceList& preferences,
    InvariantLog& log, perfdb::Lookup lookup) {
  // A preference is satisfiable at `estimates` when any stored config's
  // predicted quality meets its constraints.
  auto satisfiable = [&](const adapt::UserPreference& pref,
                         const perfdb::ResourcePoint& estimates) {
    bool found = false;
    db.for_each_config([&](const tunable::ConfigPoint& config) {
      if (found) return;
      auto q = db.predict(config, estimates, lookup);
      if (q && pref.satisfied_by(*q)) found = true;
    });
    return found;
  };

  for (const auto& event : events) {
    const std::size_t k = event.preference_index;
    if (k >= preferences.size()) {
      log.report(event.time, "preference-order",
                 util::format("decision names preference #{} but only {} "
                              "exist",
                              k, preferences.size()));
      continue;
    }
    auto predicted = db.predict(event.to, event.estimates, lookup);
    if (!predicted) {
      log.report(event.time, "preference-order",
                 util::format("selected config {} has no prediction at the "
                              "decision estimates",
                              event.to.key()));
      continue;
    }
    const bool claims_satisfied = preferences[k].satisfied_by(*predicted);
    if (!claims_satisfied) {
      // Legal only as a best-effort decision: last preference, and nothing
      // satisfies any preference at all.
      if (k != preferences.size() - 1) {
        log.report(event.time, "preference-order",
                   util::format("config {} violates preference #{} it was "
                                "selected under",
                                event.to.key(), k));
        continue;
      }
      bool any = false;
      for (const auto& pref : preferences) {
        if (satisfiable(pref, event.estimates)) {
          any = true;
          break;
        }
      }
      if (any) {
        log.report(event.time, "preference-order",
                   util::format("best-effort config {} chosen although a "
                                "preference was satisfiable",
                                event.to.key()));
      }
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (satisfiable(preferences[j], event.estimates)) {
        log.report(event.time, "preference-order",
                   util::format("decision used preference #{} but more "
                                "preferred #{} was satisfiable",
                                k, j));
        break;
      }
    }
  }
}

MonitorAccuracyChecker::MonitorAccuracyChecker(
    sim::Simulator& sim, const adapt::MonitoringAgent& monitor,
    const FaultInjector& injector, InvariantLog& log, Options options)
    : sim_(sim),
      monitor_(monitor),
      injector_(injector),
      log_(log),
      options_(options) {}

void MonitorAccuracyChecker::check_axis(const std::string& axis, double truth,
                                        sim::SimTime stable_since,
                                        bool gated_on_mailbox) {
  const sim::SimTime now = sim_.now();
  const double guard = options_.window + options_.settle;
  if (now - stable_since < guard) return;
  if (gated_on_mailbox && injector_.mailbox_disturbed_in(now - guard, now)) {
    return;
  }
  auto estimate = monitor_.estimate(monitor_.axis_id(axis));
  if (!estimate) return;  // no samples in-window: nothing to hold to account
  const double tolerance =
      options_.tolerance + injector_.max_noise_in(now - guard, now);
  const double scale = std::max(std::abs(truth), 1e-12);
  ++checked_;
  if (std::abs(*estimate - truth) > tolerance * scale) {
    log_.report(now, "monitor-accuracy",
                util::format("{} estimate {} vs ground truth {} exceeds "
                             "relative tolerance {:.3f}",
                             axis, *estimate, truth, tolerance));
  }
}

void MonitorAccuracyChecker::probe() {
  check_axis("cpu_share", injector_.true_cpu_share(),
             injector_.cpu_stable_since(), /*gated_on_mailbox=*/false);
  check_axis("net_bps", injector_.true_bandwidth(),
             injector_.bandwidth_stable_since(), /*gated_on_mailbox=*/true);
}

void check_reconvergence(
    sim::SimTime end_time, const FaultInjector& injector,
    const adapt::ResourceScheduler& scheduler,
    const adapt::SteeringAgent& steering,
    const std::vector<adapt::AdaptationController::AdaptationEvent>& events,
    double monitor_window, double check_interval, int k_checks,
    InvariantLog& log) {
  const sim::SimTime clear = injector.clear_time();
  const sim::SimTime grace =
      monitor_window + static_cast<double>(k_checks) * check_interval;
  if (end_time < clear + grace) return;  // run too short to judge

  for (const auto& event : events) {
    if (event.time > clear + grace) {
      log.report(event.time, "re-convergence",
                 util::format("adaptation {} -> {} after the grace period "
                              "(faults cleared at {:.3f})",
                              event.from.key(), event.to.key(), clear));
    }
  }

  const perfdb::ResourcePoint truth{injector.true_cpu_share(),
                                    injector.true_bandwidth()};
  auto decision = scheduler.select_with_incumbent(truth, steering.active());
  if (!decision) {
    log.report(end_time, "re-convergence",
               "scheduler has no decision at the true resources");
    return;
  }
  if (decision->config != steering.active()) {
    log.report(end_time, "re-convergence",
               util::format("active config {} is not a fixed point: "
                            "scheduler prefers {} at true resources",
                            steering.active().key(), decision->config.key()));
  }
  if (steering.has_pending()) {
    log.report(end_time, "re-convergence",
               "a staged configuration change was never applied");
  }
}

}  // namespace avf::testkit
