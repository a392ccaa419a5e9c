#include "perfdb/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "util/thread_pool.hpp"

namespace avf::perfdb {

using tunable::ConfigPoint;

namespace {

/// Scan one configuration's samples for steep gaps.  Pure over the
/// database's stored records; safe to run for distinct configurations from
/// distinct workers (the lazy grid-index build is per-configuration).
std::vector<RefinementSuggestion> analyze_config(const PerfDatabase& db,
                                                 const ConfigPoint& config,
                                                 double relative_threshold) {
  std::vector<RefinementSuggestion> out;
  std::set<ResourcePoint> seen;
  std::vector<PerfRecord> records = db.records(config);
  // Index samples by resource point for neighbor lookup.
  std::map<ResourcePoint, const tunable::QosVector*> by_point;
  for (const PerfRecord& r : records) by_point[r.resources] = &r.quality;

  for (std::size_t axis = 0; axis < db.axes().size(); ++axis) {
    std::vector<double> grid = db.grid_values(config, db.axes()[axis]);
    for (const PerfRecord& r : records) {
      // Find the next grid value along this axis and the neighbor sample
      // with all other coordinates equal.
      auto it =
          std::upper_bound(grid.begin(), grid.end(), r.resources[axis]);
      if (it == grid.end()) continue;
      ResourcePoint neighbor = r.resources;
      neighbor[axis] = *it;
      auto found = by_point.find(neighbor);
      if (found == by_point.end()) continue;

      for (const auto& m : db.schema().metrics()) {
        double m0 = r.quality.get(m.name);
        double m1 = found->second->get(m.name);
        double scale = std::max({std::abs(m0), std::abs(m1), 1e-12});
        double change = std::abs(m1 - m0) / scale;
        if (change <= relative_threshold) continue;
        ResourcePoint midpoint = r.resources;
        midpoint[axis] = 0.5 * (r.resources[axis] + neighbor[axis]);
        if (seen.insert(midpoint).second) {
          out.push_back(RefinementSuggestion{config, midpoint,
                                             db.axes()[axis], m.name,
                                             change});
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<RefinementSuggestion> sensitivity_analysis(
    const PerfDatabase& db, double relative_threshold, std::size_t threads) {
  std::vector<ConfigPoint> configs = db.configs();
  std::vector<std::vector<RefinementSuggestion>> per_config(configs.size());

  util::parallel_for(threads, configs.size(), [&](std::size_t i) {
    per_config[i] = analyze_config(db, configs[i], relative_threshold);
  });

  std::vector<RefinementSuggestion> out;
  for (std::vector<RefinementSuggestion>& list : per_config) {
    out.insert(out.end(), std::make_move_iterator(list.begin()),
               std::make_move_iterator(list.end()));
  }
  // Strongest change first, with a full deterministic tiebreak: equal
  // strengths order by (config, point, axis, metric).  std::sort with a
  // strength-only comparator left tie order unspecified, which made
  // refinement's budget picks depend on the sort's internals.
  std::sort(out.begin(), out.end(),
            [](const RefinementSuggestion& a, const RefinementSuggestion& b) {
              if (a.relative_change != b.relative_change) {
                return a.relative_change > b.relative_change;
              }
              return std::tie(a.config, a.point, a.axis, a.metric) <
                     std::tie(b.config, b.point, b.axis, b.metric);
            });
  return out;
}

}  // namespace avf::perfdb
