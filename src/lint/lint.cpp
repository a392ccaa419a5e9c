#include "lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/fmt.hpp"

namespace avf::lint {

using tunable::AppSpec;
using tunable::ConfigPoint;
using tunable::ConfigSpace;
using tunable::Direction;

namespace {

std::string rid(std::string_view rule) { return std::string(rule); }

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Check one of a task's name lists against a membership predicate.
template <typename Has>
void check_references(Report& report, const tunable::TaskSpec& task,
                      const std::vector<std::string>& names,
                      std::string_view what, std::string_view missing_rule,
                      Has&& declared) {
  std::set<std::string> seen;
  for (const std::string& name : names) {
    if (name.empty()) {
      report.error(rid(rules::kEmptyName),
                   util::format("task '{}'", task.name),
                   util::format("empty {} reference", what), task.where);
      continue;
    }
    if (!seen.insert(name).second) {
      report.warning(rid(rules::kDuplicateReference),
                     util::format("task '{}'", task.name),
                     util::format("{} '{}' referenced more than once", what,
                                  name),
                     task.where);
      continue;
    }
    if (!missing_rule.empty() && !declared(name)) {
      report.error(rid(missing_rule), util::format("task '{}'", task.name),
                   util::format("references undeclared {} '{}'", what, name),
                   task.where);
    }
  }
}

void lint_references(Report& report, const AppSpec& spec) {
  const ConfigSpace& space = spec.space();

  std::set<std::string> task_names;
  for (const tunable::TaskSpec& task : spec.tasks()) {
    if (task.name.empty()) {
      report.error(rid(rules::kEmptyName), "task", "task has no name",
                   task.where);
    } else if (!task_names.insert(task.name).second) {
      report.error(rid(rules::kDuplicateTask),
                   util::format("task '{}'", task.name),
                   "duplicate task name shadows an earlier declaration",
                   task.where);
    }
    check_references(report, task, task.params, "control parameter",
                     rules::kUndefinedParam,
                     [&](const std::string& n) {
                       return space.has_parameter(n);
                     });
    check_references(report, task, task.metrics, "metric",
                     rules::kUndefinedMetric,
                     [&](const std::string& n) {
                       return spec.metrics().has(n);
                     });
    // Resources name environment endpoints ("client.CPU"), not database
    // axes, so only structural checks apply.
    check_references(report, task, task.resources, "resource", {},
                     [](const std::string&) { return true; });
  }

  std::set<std::string> transition_names;
  for (const tunable::TransitionSpec& transition : spec.transitions()) {
    if (transition.name.empty()) {
      report.error(rid(rules::kEmptyName), "transition",
                   "transition has no name", transition.where);
    } else if (!transition_names.insert(transition.name).second) {
      report.error(rid(rules::kDuplicateTransition),
                   util::format("transition '{}'", transition.name),
                   "duplicate transition name shadows an earlier declaration",
                   transition.where);
    }
  }

  // Unused declarations only make sense once the spec declares tasks.
  if (!spec.tasks().empty()) {
    for (const tunable::ParamDomain& param : space.parameters()) {
      bool used = std::any_of(
          spec.tasks().begin(), spec.tasks().end(),
          [&](const tunable::TaskSpec& t) {
            return std::find(t.params.begin(), t.params.end(), param.name) !=
                   t.params.end();
          });
      if (!used) {
        report.warning(rid(rules::kUnusedParam),
                       util::format("parameter '{}'", param.name),
                       "declared but referenced by no task", param.where);
      }
    }
    for (const tunable::MetricDef& metric : spec.metrics().metrics()) {
      bool used = std::any_of(
          spec.tasks().begin(), spec.tasks().end(),
          [&](const tunable::TaskSpec& t) {
            return std::find(t.metrics.begin(), t.metrics.end(),
                             metric.name) != t.metrics.end();
          });
      if (!used) {
        report.warning(rid(rules::kUnusedMetric),
                       util::format("metric '{}'", metric.name),
                       "declared but updated by no task", metric.where);
      }
    }
  }

  for (const tunable::ParamDomain& param : space.parameters()) {
    std::set<int> values;
    for (int v : param.values) {
      if (!values.insert(v).second) {
        report.warning(rid(rules::kDuplicateValue),
                       util::format("parameter '{}'", param.name),
                       util::format("domain lists value {} more than once", v),
                       param.where);
      }
    }
  }
}

void lint_feasibility(Report& report, const AppSpec& spec,
                      const Options& options,
                      const std::vector<ConfigPoint>& valid) {
  const ConfigSpace& space = spec.space();
  if (space.parameter_count() == 0) {
    report.error(rid(rules::kEmptySpace), "config space",
                 "no control parameters declared; nothing to configure");
    return;
  }
  std::size_t raw = space.raw_size();
  if (raw > options.max_configs) {
    report.note(rid(rules::kSkipped), "config space",
                util::format("raw space has {} points (> max_configs {}); "
                             "feasibility and coverage rules skipped",
                             raw, options.max_configs));
    return;
  }

  if (valid.empty()) {
    report.error(
        rid(rules::kInfeasible), "config space",
        util::format("guards admit none of the {} raw configurations", raw));
    // Blame any single guard that is infeasible on its own.
    for (const tunable::Guard& guard : space.guards()) {
      bool admits = false;
      space.for_each_raw([&](const ConfigPoint& point) {
        admits = guard.predicate(point);
        return !admits;
      });
      if (!admits) {
        report.error(rid(rules::kInfeasible),
                     util::format("guard '{}'", guard.description),
                     "admits no configuration on its own", guard.where);
      }
    }
    return;
  }

  // Dead domain values: declared but admitted by no valid configuration.
  std::map<std::string, std::set<int>> alive;
  for (const ConfigPoint& point : valid) {
    for (const auto& [name, value] : point.values()) alive[name].insert(value);
  }
  for (const tunable::ParamDomain& param : space.parameters()) {
    const std::set<int>& seen = alive[param.name];
    for (int v : param.values) {
      if (!seen.count(v)) {
        report.warning(
            rid(rules::kDeadValue),
            util::format("parameter '{}'", param.name),
            util::format("domain value {} appears in no valid configuration",
                         v),
            param.where);
      }
    }
    if (param.values.size() > 1 && seen.size() == 1) {
      report.warning(rid(rules::kConstantParam),
                     util::format("parameter '{}'", param.name),
                     util::format("guards pin it to the single value {}",
                                  *seen.begin()),
                     param.where);
    }
  }
}

/// Strongly-connected components of `adj` (Kosaraju, iterative).  Returns
/// the component id per node and the number of components.
std::pair<std::vector<int>, int> scc(
    const std::vector<std::vector<int>>& adj) {
  int n = static_cast<int>(adj.size());
  std::vector<std::vector<int>> radj(n);
  for (int u = 0; u < n; ++u) {
    for (int v : adj[u]) radj[v].push_back(u);
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  for (int s = 0; s < n; ++s) {
    if (seen[s]) continue;
    // Iterative post-order DFS.
    std::vector<std::pair<int, std::size_t>> stack{{s, 0}};
    seen[s] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adj[u].size()) {
        int v = adj[u][next++];
        if (!seen[v]) {
          seen[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }
  std::vector<int> comp(n, -1);
  int components = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[*it] != -1) continue;
    std::vector<int> stack{*it};
    comp[*it] = components;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int v : radj[u]) {
        if (comp[v] == -1) {
          comp[v] = components;
          stack.push_back(v);
        }
      }
    }
    ++components;
  }
  return {std::move(comp), components};
}

void lint_connectivity(Report& report, const AppSpec& spec,
                       const Options& options,
                       const std::vector<ConfigPoint>& valid) {
  if (valid.size() <= 1) return;
  bool any_guard = std::any_of(
      spec.transitions().begin(), spec.transitions().end(),
      [](const tunable::TransitionSpec& t) { return bool(t.guard); });
  if (!any_guard) return;  // unguarded graph is complete
  if (valid.size() > options.max_transition_configs) {
    report.note(
        rid(rules::kSkipped), "transition graph",
        util::format("{} valid configurations (> max_transition_configs "
                     "{}); connectivity analysis skipped",
                     valid.size(), options.max_transition_configs));
    return;
  }

  int n = static_cast<int>(valid.size());
  // The steering agent consults *every* transition guard and any veto
  // cancels the change, so the edge relation is the conjunction.
  std::vector<std::vector<int>> adj(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      bool admitted = true;
      for (const tunable::TransitionSpec& t : spec.transitions()) {
        if (t.guard && !t.guard(valid[u], valid[v])) {
          admitted = false;
          break;
        }
      }
      if (admitted) adj[u].push_back(v);
    }
  }

  // A guarded transition that admits no pair at all vetoes every change.
  for (const tunable::TransitionSpec& t : spec.transitions()) {
    if (!t.guard) continue;
    bool admits = false;
    for (int u = 0; u < n && !admits; ++u) {
      for (int v = 0; v < n && !admits; ++v) {
        if (u != v && t.guard(valid[u], valid[v])) admits = true;
      }
    }
    if (!admits) {
      report.error(rid(rules::kAlwaysVeto),
                   util::format("transition '{}'", t.name),
                   "guard vetoes every configuration change", t.where);
    }
  }

  auto [comp, components] = scc(adj);
  if (components <= 1) return;

  // Exhibit one unreachable ordered pair.  BFS from node 0: either some
  // node is unreachable from it, or some node in another component cannot
  // reach it (otherwise they would share a component).
  std::vector<char> reached(n, 0);
  std::vector<int> queue{0};
  reached[0] = 1;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    for (int v : adj[queue[qi]]) {
      if (!reached[v]) {
        reached[v] = 1;
        queue.push_back(v);
      }
    }
  }
  int from = 0, to = 0;
  for (int v = 0; v < n; ++v) {
    if (!reached[v]) {
      from = 0;
      to = v;
      break;
    }
  }
  if (from == to) {
    for (int v = 0; v < n; ++v) {
      if (comp[v] != comp[0]) {
        from = v;
        to = 0;
        break;
      }
    }
  }
  report.error(
      rid(rules::kUnreachable), "transition graph",
      util::format("transition guards split {} valid configurations into {} "
                   "strongly-connected components; the steering agent cannot "
                   "navigate from '{}' to '{}'",
                   n, components, valid[from].key(), valid[to].key()));
}

}  // namespace

Report lint_spec(const AppSpec& spec, const Options& options) {
  Report report;
  lint_references(report, spec);
  std::vector<ConfigPoint> valid;
  if (spec.space().parameter_count() > 0 &&
      spec.space().raw_size() <= options.max_configs) {
    valid = spec.space().enumerate();
  }
  lint_feasibility(report, spec, options, valid);
  lint_connectivity(report, spec, options, valid);
  return report;
}

Report lint_preferences(const AppSpec& spec,
                        const tunable::PreferenceList& preferences,
                        const Options& options) {
  (void)options;
  Report report;
  const tunable::MetricSchema& schema = spec.metrics();
  if (preferences.empty()) {
    report.error(rid(rules::kPrefNone), "preferences",
                 "no user preference declared; the scheduler cannot rank "
                 "configurations");
    return report;
  }
  std::set<std::string> names;
  for (const tunable::UserPreference& pref : preferences) {
    std::string subject = util::format(
        "preference '{}'", pref.name.empty() ? "<unnamed>" : pref.name);
    if (!pref.name.empty() && !names.insert(pref.name).second) {
      report.warning(rid(rules::kDuplicateReference), subject,
                     "duplicate preference name", pref.where);
    }
    if (pref.objective_metric.empty()) {
      report.error(rid(rules::kPrefNoObjective), subject,
                   "no objective metric to optimize", pref.where);
    } else if (!schema.has(pref.objective_metric)) {
      report.error(rid(rules::kPrefUndefinedMetric), subject,
                   util::format("objective optimizes undeclared metric '{}'",
                                pref.objective_metric),
                   pref.where);
    } else {
      Direction dir = schema.metric(pref.objective_metric).direction;
      bool against = pref.maximize ? dir == Direction::kLowerBetter
                                   : dir == Direction::kHigherBetter;
      if (against) {
        report.warning(
            rid(rules::kPrefObjectiveDirection), subject,
            util::format("objective {} '{}', whose declared direction is "
                         "{}-better",
                         pref.maximize ? "maximizes" : "minimizes",
                         pref.objective_metric,
                         dir == Direction::kLowerBetter ? "lower" : "higher"),
            pref.where);
      }
    }
    std::set<std::string> constrained;
    for (const tunable::MetricRange& range : pref.constraints) {
      if (!schema.has(range.metric)) {
        report.error(
            rid(rules::kPrefUndefinedMetric), subject,
            util::format("constraint on undeclared metric '{}'", range.metric),
            pref.where);
        continue;
      }
      if (!constrained.insert(range.metric).second) {
        report.warning(
            rid(rules::kPrefDuplicateConstraint), subject,
            util::format("multiple constraints on metric '{}'", range.metric),
            pref.where);
      }
      if (range.min > range.max) {
        report.error(
            rid(rules::kPrefEmptyRange), subject,
            util::format("constraint on '{}' has min {} > max {}; no value "
                         "can satisfy it",
                         range.metric, range.min, range.max),
            pref.where);
      } else if (range.min == -std::numeric_limits<double>::infinity() &&
                 range.max == std::numeric_limits<double>::infinity()) {
        report.warning(
            rid(rules::kPrefVacuousConstraint), subject,
            util::format("constraint on '{}' admits every value", range.metric),
            pref.where);
      }
    }
  }
  return report;
}

Report lint_database(const AppSpec& spec, const perfdb::PerfDatabase& db,
                     const Options& options) {
  Report report;
  if (db.axes() != spec.resource_axes()) {
    report.error(
        rid(rules::kDbAxisMismatch), "database",
        util::format("database axes [{}] do not match the spec's resource "
                     "axes [{}]",
                     join(db.axes()), join(spec.resource_axes())));
  }

  // Metric schema cross-check (a CSV-loaded database may disagree with the
  // spec even though driver-built ones cannot).
  for (const tunable::MetricDef& m : spec.metrics().metrics()) {
    if (!db.schema().has(m.name)) {
      report.warning(rid(rules::kDbMetricMismatch),
                     util::format("metric '{}'", m.name),
                     "declared in the spec but absent from the database",
                     m.where);
    }
  }
  for (const tunable::MetricDef& m : db.schema().metrics()) {
    if (!spec.metrics().has(m.name)) {
      report.warning(rid(rules::kDbMetricMismatch),
                     util::format("metric '{}'", m.name),
                     "present in the database but not declared in the spec");
    }
  }

  if (db.configs().empty()) {
    report.warning(rid(rules::kDbEmpty), "database",
                   "no samples at all; every valid configuration is "
                   "unprofiled");
    return report;
  }

  db.for_each_config([&](const ConfigPoint& config) {
    if (!spec.space().valid(config)) {
      report.error(rid(rules::kDbInvalidConfig),
                   util::format("config '{}'", config.key()),
                   "database holds samples for a configuration that is not "
                   "valid in the declared space");
    }
  });

  if (spec.space().parameter_count() == 0) return report;
  if (spec.space().raw_size() > options.max_configs) {
    report.note(rid(rules::kSkipped), "database",
                util::format("raw space has {} points (> max_configs {}); "
                             "coverage analysis skipped",
                             spec.space().raw_size(), options.max_configs));
    return report;
  }
  std::size_t missing = 0;
  std::size_t predicted_only = 0;
  for (const ConfigPoint& config : spec.space().enumerate()) {
    if (db.has_config(config)) {
      // Adaptive profiling covers some configurations purely with
      // regression-tree predictions: the scheduler can select them, so they
      // are covered — but only to the model's error bound, which is worth a
      // note rather than an unprofiled warning.
      if (db.all_predicted(config)) {
        ++predicted_only;
        if (predicted_only <= options.max_unprofiled_listed) {
          report.note(rid(rules::kDbPredictedConfig),
                      util::format("config '{}'", config.key()),
                      "covered only by tree-predicted samples (adaptive "
                      "profiling); no cell was measured in the sandbox");
        }
      }
      continue;
    }
    ++missing;
    if (missing <= options.max_unprofiled_listed) {
      report.warning(rid(rules::kDbUnprofiledConfig),
                     util::format("config '{}'", config.key()),
                     "valid configuration has no profiled samples; the "
                     "scheduler can never select it");
    }
  }
  if (predicted_only > options.max_unprofiled_listed) {
    report.note(
        rid(rules::kDbPredictedConfig), "database",
        util::format("...and {} more configurations covered only by "
                     "tree-predicted samples",
                     predicted_only - options.max_unprofiled_listed));
  }
  if (missing > options.max_unprofiled_listed) {
    report.warning(
        rid(rules::kDbUnprofiledConfig), "database",
        util::format("...and {} more valid configurations without samples",
                     missing - options.max_unprofiled_listed));
  }
  return report;
}

Report lint_app(const AppSpec& spec,
                const tunable::PreferenceList* preferences,
                const perfdb::PerfDatabase* db, const Options& options) {
  Report report = lint_spec(spec, options);
  if (preferences != nullptr) {
    report.merge(lint_preferences(spec, *preferences, options));
  }
  if (db != nullptr) report.merge(lint_database(spec, *db, options));
  return report;
}

}  // namespace avf::lint

namespace avf::tunable {

lint::Report AppSpec::validate() const { return lint::lint_spec(*this); }

}  // namespace avf::tunable
