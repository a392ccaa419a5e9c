// The regression tree behind adaptive profiling: variance-reduction splits
// with std::tie total-order tie-breaks.  The split sequence is a pure
// function of the training set — pinned here as a golden trace, the same
// discipline the parallel driver uses for its save() bytes.
#include "perfdb/regression_tree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/fmt.hpp"

namespace avf::perfdb {
namespace {

/// One line per split of `tree.split_trace()`: "n<node> f<axis><=<threshold>".
std::string trace_string(const RegressionTree& tree) {
  std::string out;
  for (const RegressionTree::SplitRecord& s : tree.split_trace()) {
    out += util::format("n{} f{}<={}\n", s.node, s.axis, s.threshold);
  }
  return out;
}

RegressionTree::Options shallow() {
  RegressionTree::Options options;
  options.min_leaf = 1;
  options.max_depth = 8;
  return options;
}

TEST(RegressionTree, RejectsEmptyAndRaggedTrainingSets) {
  RegressionTree tree;
  EXPECT_THROW(tree.fit({}, shallow()), std::invalid_argument);
  std::vector<TreeSample> ragged{{{1.0, 2.0}, 0.0}, {{1.0}, 0.0}};
  EXPECT_THROW(tree.fit(ragged, shallow()), std::invalid_argument);
  EXPECT_FALSE(tree.fitted());
  EXPECT_THROW(tree.predict({1.0}), std::logic_error);
}

TEST(RegressionTree, ConstantValuesStayASingleLeaf) {
  std::vector<TreeSample> samples;
  for (int i = 0; i < 8; ++i) {
    samples.push_back({{static_cast<double>(i)}, 4.25});
  }
  RegressionTree tree;
  tree.fit(samples, shallow());
  EXPECT_TRUE(tree.split_trace().empty());
  EXPECT_EQ(tree.leaves().size(), 1u);
  EXPECT_EQ(tree.predict({3.0}), 4.25);
}

TEST(RegressionTree, LearnsAStepFunctionExactly) {
  // value = 0 below x=2, 10 at or above: one split at the midpoint 1.5.
  std::vector<TreeSample> samples{{{0.0}, 0.0},
                                  {{1.0}, 0.0},
                                  {{2.0}, 10.0},
                                  {{3.0}, 10.0}};
  RegressionTree tree;
  RegressionTree::Options options;  // min_leaf = 2
  tree.fit(samples, options);
  EXPECT_EQ(trace_string(tree), "n0 f0<=1.5\n");
  EXPECT_EQ(tree.predict({0.5}), 0.0);
  EXPECT_EQ(tree.predict({2.5}), 10.0);
  EXPECT_EQ(tree.predict({-5.0}), 0.0);   // constant extrapolation
  EXPECT_EQ(tree.predict({100.0}), 10.0);
}

std::vector<TreeSample> two_axis_samples() {
  // value = (x < 4 ? 0 : 8) + (x % 2): axis 0 carries the big step, axis 1
  // (the parity bit) the small one.
  std::vector<TreeSample> samples;
  for (int x = 0; x < 8; ++x) {
    double parity = static_cast<double>(x % 2);
    samples.push_back(
        {{static_cast<double>(x), parity}, (x < 4 ? 0.0 : 8.0) + parity});
  }
  return samples;
}

TEST(RegressionTree, GoldenSplitSequenceIsPinned) {
  RegressionTree tree;
  tree.fit(two_axis_samples(), RegressionTree::Options{});
  // Pre-order: root splits on the big step, then each side isolates the
  // parity bit.  Any change to the split scan shows up here first.
  EXPECT_EQ(trace_string(tree),
            "n0 f0<=3.5\n"
            "n1 f1<=0.5\n"
            "n4 f1<=0.5\n");
  EXPECT_EQ(tree.predict({2.0, 1.0}), 1.0);
  EXPECT_EQ(tree.predict({6.0, 0.0}), 8.0);
  // Record gains are the SSE reductions: the root split removes all
  // between-plateau variance (130 total, 1 left + 1 right remain).
  ASSERT_EQ(tree.split_trace().size(), 3u);
  EXPECT_DOUBLE_EQ(tree.split_trace()[0].gain, 128.0);
}

TEST(RegressionTree, RefitIsIdentical) {
  RegressionTree a, b;
  a.fit(two_axis_samples(), RegressionTree::Options{});
  b.fit(two_axis_samples(), RegressionTree::Options{});
  EXPECT_EQ(trace_string(a), trace_string(b));
  ASSERT_EQ(a.leaves().size(), b.leaves().size());
  for (std::size_t i = 0; i < a.leaves().size(); ++i) {
    EXPECT_EQ(a.leaves()[i].node, b.leaves()[i].node);
    EXPECT_EQ(a.leaves()[i].mean, b.leaves()[i].mean);
    EXPECT_EQ(a.leaves()[i].variance, b.leaves()[i].variance);
  }
}

TEST(RegressionTree, EqualGainTieBreaksToLowestAxis) {
  // Axis 1 mirrors axis 0 exactly, so every candidate split has the same
  // gain on both axes; the std::tie total order must pick axis 0.
  std::vector<TreeSample> samples;
  for (int x = 0; x < 4; ++x) {
    samples.push_back({{static_cast<double>(x), static_cast<double>(x)},
                       x < 2 ? 0.0 : 6.0});
  }
  RegressionTree tree;
  tree.fit(samples, RegressionTree::Options{});
  ASSERT_EQ(tree.split_trace().size(), 1u);
  EXPECT_EQ(tree.split_trace()[0].axis, 0u);
}

TEST(RegressionTree, MinLeafAndDepthStopSplitting) {
  std::vector<TreeSample> samples = two_axis_samples();
  RegressionTree::Options options;
  options.min_leaf = 4;  // parity split would leave children of 2
  RegressionTree tree;
  tree.fit(samples, options);
  EXPECT_EQ(trace_string(tree), "n0 f0<=3.5\n");

  options.min_leaf = 1;
  options.max_depth = 0;  // root is already at max depth
  tree.fit(samples, options);
  EXPECT_TRUE(tree.split_trace().empty());
  EXPECT_EQ(tree.predict({0.0, 0.0}), 4.5);  // grand mean
}

TEST(RegressionTree, LeafStatisticsPartitionTheTrainingSet) {
  RegressionTree tree;
  tree.fit(two_axis_samples(), RegressionTree::Options{});
  std::size_t covered = 0;
  for (const RegressionTree::LeafInfo& leaf : tree.leaves()) {
    covered += leaf.count;
    EXPECT_EQ(leaf.variance, 0.0);  // all four plateaus are pure
  }
  EXPECT_EQ(covered, 8u);
}

TEST(RegressionTree, FeatureSizeMismatchThrows) {
  RegressionTree tree;
  tree.fit(two_axis_samples(), RegressionTree::Options{});
  EXPECT_THROW(tree.predict({1.0}), std::invalid_argument);
}

TEST(AdaptiveModelTest, FeatureLayoutIsParamsThenAxes) {
  AdaptiveModel model;
  model.feature_names = {"c", "q", "cpu_share", "net_bps"};
  model.config_features = 2;
  tunable::ConfigPoint config;
  config.set("q", 3);
  config.set("c", 1);
  std::vector<double> f = model.features_of(config, {0.5, 250e3});
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], 1.0);  // c
  EXPECT_EQ(f[1], 3.0);  // q
  EXPECT_EQ(f[2], 0.5);
  EXPECT_EQ(f[3], 250e3);
}

}  // namespace
}  // namespace avf::perfdb
