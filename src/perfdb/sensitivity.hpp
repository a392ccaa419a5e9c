// Sensitivity analysis over the performance database (paper §5): "a
// separate tool analyzes this performance data, performs sensitivity
// analysis to determine configurations and regions of the resource space
// that require additional samples."
//
// For every configuration and every resource axis, adjacent grid samples
// (all other axes held equal) are compared; where a metric changes by more
// than the relative threshold across a grid gap, the midpoint is suggested
// as an additional sample.  The profiling driver feeds suggestions back
// through the testbed for as many refinement rounds as configured.
#pragma once

#include <string>
#include <vector>

#include "perfdb/database.hpp"

namespace avf::perfdb {

struct RefinementSuggestion {
  tunable::ConfigPoint config;
  ResourcePoint point;        // the new sample to take
  std::string axis;           // axis along which behavior changes fast
  std::string metric;         // metric that triggered the suggestion
  double relative_change;     // |m1 - m0| / max(|m0|, |m1|)
};

/// Suggestions, deduplicated by (config, point), strongest changes first.
/// The order is a deterministic total order — relative change descending,
/// ties broken by (config key, point, axis, metric) — so downstream
/// refinement picks are identical across runs and thread counts.
/// The per-configuration scans fan out through util::parallel_for on
/// `threads` workers (0 = hardware_concurrency); the result is the same at
/// any thread count.
std::vector<RefinementSuggestion> sensitivity_analysis(
    const PerfDatabase& db, double relative_threshold,
    std::size_t threads = 1);

}  // namespace avf::perfdb
