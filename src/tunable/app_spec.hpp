// The passive form of a tunable application (paper §3): configuration
// space, QoS metric schema, resource axes, task modules, and transitions —
// everything the preprocessor would generate from the source annotations in
// Figure 2, expressed as a registration DSL:
//
//   AppSpec spec("active-viz");
//   spec.space().add_parameter("dR", {80, 160, 320});
//   spec.metrics().add("transmit_time", Direction::kLowerBetter);
//   spec.add_resource_axis("cpu_share");
//   spec.add_task({.name = "module1", .params = {"l", "dR", "c"}, ...});
//   spec.add_transition({.name = "notify-server", ...});
//
// Every registration captures its std::source_location, so diagnostics from
// the spec linter (src/lint) point back at the declaration site.
#pragma once

#include <functional>
#include <source_location>
#include <string>
#include <vector>

#include "tunable/config.hpp"
#include "tunable/qos.hpp"

namespace avf::lint {
class Report;
}  // namespace avf::lint

namespace avf::tunable {

/// One tunable task module (the `task` construct): metadata describing
/// which parameters steer it, which environment resources it consumes, and
/// which metrics it produces.  Used for documentation, database templates,
/// and monitoring customization ("behavior of the monitoring agent is
/// customized to the currently active configuration", §6.1).
struct TaskSpec {
  std::string name;
  std::vector<std::string> params;     // control parameters it reads
  std::vector<std::string> resources;  // e.g. "client.CPU", "client.network"
  std::vector<std::string> metrics;    // QoS metrics it updates
  /// Guard: whether this task participates under `config` (empty = always).
  std::function<bool(const ConfigPoint&)> guard;
  /// Declaration site, captured automatically at aggregate initialization.
  std::source_location where = std::source_location::current();
};

/// One reconfiguration action (the `transition` construct): runs when the
/// steering agent installs a new configuration at a task boundary.
struct TransitionSpec {
  std::string name;
  /// Guard on (from, to); a false return vetoes this transition (the
  /// steering agent then reports failure back to the scheduler).
  std::function<bool(const ConfigPoint& from, const ConfigPoint& to)> guard;
  /// Handler performing application-specific actions (e.g. notifying the
  /// server of a new compression type).
  std::function<void(const ConfigPoint& from, const ConfigPoint& to)> handler;
  /// Declaration site, captured automatically at aggregate initialization.
  std::source_location where = std::source_location::current();
};

class AppSpec {
 public:
  explicit AppSpec(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  ConfigSpace& space() { return space_; }
  const ConfigSpace& space() const { return space_; }

  MetricSchema& metrics() { return metrics_; }
  const MetricSchema& metrics() const { return metrics_; }

  /// Declare a resource dimension the application's behavior depends on
  /// (the axes of the performance database), e.g. "cpu_share", "net_bps".
  void add_resource_axis(
      const std::string& axis,
      std::source_location where = std::source_location::current());
  const std::vector<std::string>& resource_axes() const { return axes_; }
  const std::vector<std::source_location>& resource_axis_sites() const {
    return axis_sites_;
  }

  void add_task(TaskSpec task) { tasks_.push_back(std::move(task)); }
  const std::vector<TaskSpec>& tasks() const { return tasks_; }

  void add_transition(TransitionSpec transition) {
    transitions_.push_back(std::move(transition));
  }
  const std::vector<TransitionSpec>& transitions() const {
    return transitions_;
  }

  /// Static analysis of this specification: reference integrity, guard
  /// feasibility, transition connectivity, metric consistency.  Defined in
  /// the avf_lint library (src/lint/lint.cpp); callers must link it.
  lint::Report validate() const;

 private:
  std::string name_;
  ConfigSpace space_;
  MetricSchema metrics_;
  std::vector<std::string> axes_;
  std::vector<std::source_location> axis_sites_;
  std::vector<TaskSpec> tasks_;
  std::vector<TransitionSpec> transitions_;
};

}  // namespace avf::tunable
