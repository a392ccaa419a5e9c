#include "perfdb/regression_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "util/fmt.hpp"

namespace avf::perfdb {

namespace {

/// Sum of squared deviations from the mean (two-pass, so the arithmetic —
/// and with it every split decision — is a deterministic function of the
/// sample order alone).
double sse_of(const std::vector<TreeSample>& samples,
              const std::vector<std::size_t>& indices, double mean) {
  double sse = 0.0;
  for (std::size_t i : indices) {
    double d = samples[i].value - mean;
    sse += d * d;
  }
  return sse;
}

}  // namespace

void RegressionTree::fit(const std::vector<TreeSample>& samples,
                         const Options& options) {
  if (samples.empty()) {
    throw std::invalid_argument("regression tree: empty training set");
  }
  feature_count_ = samples.front().features.size();
  for (const TreeSample& s : samples) {
    if (s.features.size() != feature_count_) {
      throw std::invalid_argument(
          util::format("regression tree: ragged feature vectors ({} vs {})",
                       s.features.size(), feature_count_));
    }
  }
  nodes_.clear();
  trace_.clear();
  std::vector<std::size_t> indices(samples.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  build(samples, indices, 0, options);
}

std::size_t RegressionTree::build(const std::vector<TreeSample>& samples,
                                  std::vector<std::size_t>& indices,
                                  std::size_t depth, const Options& options) {
  const std::size_t me = nodes_.size();
  nodes_.emplace_back();
  {
    Node& node = nodes_[me];
    node.count = indices.size();
    double sum = 0.0;
    for (std::size_t i : indices) sum += samples[i].value;
    node.mean = sum / static_cast<double>(indices.size());
    node.variance =
        sse_of(samples, indices, node.mean) / static_cast<double>(
                                                  indices.size());
  }
  const double parent_sse =
      nodes_[me].variance * static_cast<double>(indices.size());
  if (depth >= options.max_depth || indices.size() < 2 * options.min_leaf ||
      nodes_[me].variance <= 0.0) {
    return me;  // leaf
  }

  // Best split: scan every (axis, threshold) candidate; the winner is the
  // largest SSE reduction, ties resolved by the (axis, threshold) total
  // order so selection never depends on scan incidentals.
  std::size_t best_axis = npos;
  double best_threshold = 0.0;
  double best_gain = 0.0;
  std::vector<std::pair<double, double>> ordered;  // (feature, value)
  for (std::size_t axis = 0; axis < feature_count_; ++axis) {
    ordered.clear();
    ordered.reserve(indices.size());
    for (std::size_t i : indices) {
      ordered.emplace_back(samples[i].features[axis], samples[i].value);
    }
    std::sort(ordered.begin(), ordered.end());
    double total_sum = 0.0, total_sq = 0.0;
    for (const auto& [f, v] : ordered) {
      total_sum += v;
      total_sq += v * v;
    }
    // Prefix sums over the sorted order; candidate thresholds sit at the
    // midpoint between adjacent distinct feature values.  Side SSEs come
    // from sum/sum-of-squares (clamped at 0 against rounding); the
    // arithmetic order is fixed by the sort, so the scan is deterministic.
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t k = 0; k + 1 < ordered.size(); ++k) {
      left_sum += ordered[k].second;
      left_sq += ordered[k].second * ordered[k].second;
      if (ordered[k].first == ordered[k + 1].first) continue;
      std::size_t left_n = k + 1;
      std::size_t right_n = ordered.size() - left_n;
      if (left_n < options.min_leaf || right_n < options.min_leaf) continue;
      double right_sum = total_sum - left_sum;
      double right_sq = total_sq - left_sq;
      double left_sse = std::max(
          0.0, left_sq - left_sum * left_sum / static_cast<double>(left_n));
      double right_sse = std::max(
          0.0,
          right_sq - right_sum * right_sum / static_cast<double>(right_n));
      double threshold = 0.5 * (ordered[k].first + ordered[k + 1].first);
      double gain = parent_sse - (left_sse + right_sse);
      if (gain <= 0.0) continue;
      bool better =
          gain > best_gain ||
          (gain == best_gain && best_axis != npos &&
           std::tie(axis, threshold) < std::tie(best_axis, best_threshold));
      if (best_axis == npos || better) {
        best_axis = axis;
        best_threshold = threshold;
        best_gain = gain;
      }
    }
  }
  if (best_axis == npos) return me;  // no admissible split improves SSE

  trace_.push_back(SplitRecord{me, best_axis, best_threshold, best_gain});

  // Stable partition keeps each side in the original sample order, so the
  // children's statistics are computed in a deterministic order too.
  std::vector<std::size_t> left, right;
  left.reserve(indices.size());
  for (std::size_t i : indices) {
    (samples[i].features[best_axis] <= best_threshold ? left : right)
        .push_back(i);
  }
  indices.clear();
  indices.shrink_to_fit();  // recursion depth x sample count is bounded

  std::size_t left_child = build(samples, left, depth + 1, options);
  std::size_t right_child = build(samples, right, depth + 1, options);
  nodes_[me].axis = best_axis;
  nodes_[me].threshold = best_threshold;
  nodes_[me].left = left_child;
  nodes_[me].right = right_child;
  return me;
}

const RegressionTree::Node& RegressionTree::descend(
    const std::vector<double>& features) const {
  if (nodes_.empty()) {
    throw std::logic_error("regression tree: predict before fit");
  }
  if (features.size() != feature_count_) {
    throw std::invalid_argument(
        util::format("regression tree: feature vector has {} entries, tree "
                     "was fit on {}",
                     features.size(), feature_count_));
  }
  std::size_t at = 0;
  while (nodes_[at].left != npos) {
    const Node& n = nodes_[at];
    at = features[n.axis] <= n.threshold ? n.left : n.right;
  }
  return nodes_[at];
}

double RegressionTree::predict(const std::vector<double>& features) const {
  return descend(features).mean;
}

std::size_t RegressionTree::leaf_of(
    const std::vector<double>& features) const {
  return static_cast<std::size_t>(&descend(features) - nodes_.data());
}

std::vector<RegressionTree::LeafInfo> RegressionTree::leaves() const {
  std::vector<LeafInfo> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.left != npos) continue;
    out.push_back(LeafInfo{i, n.count, n.mean, n.variance});
  }
  return out;
}

std::vector<double> AdaptiveModel::features_of(
    const tunable::ConfigPoint& config, const ResourcePoint& at) const {
  std::vector<double> features;
  features.reserve(feature_names.size());
  for (std::size_t i = 0; i < config_features; ++i) {
    features.push_back(static_cast<double>(config.get(feature_names[i])));
  }
  for (double v : at) features.push_back(v);
  if (features.size() != feature_names.size()) {
    throw std::invalid_argument(
        util::format("adaptive model: cell has {} features, model declares {}",
                     features.size(), feature_names.size()));
  }
  return features;
}

}  // namespace avf::perfdb
