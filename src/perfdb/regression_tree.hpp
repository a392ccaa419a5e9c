// Regression trees over sampled configuration/resource cells — the model
// behind adaptive profiling (after "A Decision Tree Based Approach Towards
// Adaptive Profiling of Distributed Applications"): instead of running every
// cell of the configs x resource-grid product in the sandbox, the driver
// measures a budgeted sample, fits one tree per metric, and spends the rest
// of the budget where the trees are least certain (highest-variance leaves).
//
// Determinism discipline (matching the PR 4 parallel-driver contract): tree
// construction is a pure function of the training set.  Candidate splits are
// scanned in (feature index, threshold) order; the best split is the one
// with the largest sum-of-squared-error reduction, ties broken by the
// std::tie total order (axis, threshold), so the split sequence — and hence
// every prediction — is identical across runs, platforms, and thread counts.
// `split_trace()` exposes that sequence for golden-trace regression tests.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "perfdb/database.hpp"
#include "tunable/config.hpp"

namespace avf::perfdb {

/// One training sample: a feature vector (config parameter values followed
/// by resource-axis values) and the observed metric value.
struct TreeSample {
  std::vector<double> features;
  double value = 0.0;
};

class RegressionTree {
 public:
  struct Options {
    /// No split may produce a child with fewer samples than this.
    std::size_t min_leaf = 2;
    /// Maximum tree depth (root is depth 0).
    std::size_t max_depth = 16;
  };

  /// One recorded split, in build order (pre-order).  `gain` is the
  /// absolute SSE reduction the split achieved.
  struct SplitRecord {
    std::size_t node = 0;
    std::size_t axis = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  /// Per-leaf statistics, in node-index (pre-order) order.
  struct LeafInfo {
    std::size_t node = 0;
    std::size_t count = 0;
    double mean = 0.0;
    /// Population variance of the leaf's training values.
    double variance = 0.0;
  };

  RegressionTree() = default;

  /// Fit on `samples` (all feature vectors must share one length).  Throws
  /// std::invalid_argument on an empty or ragged training set.
  void fit(const std::vector<TreeSample>& samples, const Options& options);

  bool fitted() const { return !nodes_.empty(); }
  std::size_t feature_count() const { return feature_count_; }

  /// Mean of the leaf `features` falls in.
  double predict(const std::vector<double>& features) const;
  /// Node index of that leaf (stable across identical fits).
  std::size_t leaf_of(const std::vector<double>& features) const;

  std::vector<LeafInfo> leaves() const;
  const std::vector<SplitRecord>& split_trace() const { return trace_; }

 private:
  struct Node {
    // Interior nodes route features[axis] <= threshold to `left`, else
    // `right`; leaves have left == npos.
    std::size_t axis = 0;
    double threshold = 0.0;
    std::size_t left = npos;
    std::size_t right = npos;
    std::size_t count = 0;
    double mean = 0.0;
    double variance = 0.0;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t build(const std::vector<TreeSample>& samples,
                    std::vector<std::size_t>& indices, std::size_t depth,
                    const Options& options);
  const Node& descend(const std::vector<double>& features) const;

  std::vector<Node> nodes_;
  std::vector<SplitRecord> trace_;
  std::size_t feature_count_ = 0;
};

/// The fitted per-metric trees of one adaptive profiling run, plus the
/// feature layout they were trained on: config parameters first (in
/// ConfigPoint's canonical name order), then the spec's resource axes.
struct AdaptiveModel {
  std::vector<std::string> feature_names;
  std::size_t config_features = 0;  ///< leading entries that are parameters
  std::map<std::string, RegressionTree> trees;  ///< metric name -> tree

  /// Feature vector for one cell, matching the training layout.
  std::vector<double> features_of(const tunable::ConfigPoint& config,
                                  const ResourcePoint& at) const;
};

}  // namespace avf::perfdb
