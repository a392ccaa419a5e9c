// Per-configuration grid index — the prediction fast path behind
// PerfDatabase::predict.
//
// The seed implementation rebuilt a per-axis std::set of sampled grid
// values on *every* interpolate call and re-derived axis spans on every
// nearest call, making prediction O(n log n) per query.  The scheduler
// queries every stored configuration per adaptation decision, so that cost
// is on the run-time loop's critical path (paper §6.2).
//
// GridIndex is built once per configuration by the mutation that changes
// its sample set (PerfDatabase never builds one inside a const query) and
// holds:
//   - sorted, deduplicated grid values per resource axis (bracketing a
//     query point is then O(log n) per axis instead of a set rebuild);
//   - a dense cell table mapping grid coordinates to sample values for
//     O(1) corner lookup (falls back to the ordered sample map when the
//     axis-value cross product is much larger than the sample count);
//   - flattened samples and per-axis spans for the nearest-neighbor scan.
//
// Overwriting an existing sample keeps the index (the mapped value object is
// updated in place); inserting a new point rebuilds it.  All
// bracketing/corner arithmetic mirrors the reference implementation
// exactly, so indexed predictions are bit-for-bit identical to the slow
// path (asserted by tests/perfdb/test_grid_index.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "tunable/qos.hpp"

namespace avf::perfdb {

/// A point along the database's resource axes, in axis declaration order.
using ResourcePoint = std::vector<double>;

class GridIndex {
 public:
  using SampleMap = std::map<ResourcePoint, tunable::QosVector>;

  /// One axis of a bracketing query: indices into the sorted grid values
  /// plus the interpolation weight toward the upper value.
  struct AxisBracket {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double lo_value = 0.0;
    double hi_value = 0.0;
    double t = 0.0;  ///< 0 when the axis is clamped or hits a grid value
  };

  /// Rebuild from scratch.  `samples` must outlive the index (the index
  /// stores pointers into its nodes, which std::map keeps stable, so
  /// overwriting a mapped value needs no rebuild).
  void build(const SampleMap& samples, std::size_t axis_count);

  /// Sorted unique sampled values along one axis.
  const std::vector<double>& axis_values(std::size_t axis) const {
    return axis_values_[axis];
  }

  /// Bracket `x` along `axis` exactly as the reference interpolation does:
  /// clamp outside the sampled span, zero weight when landing on a value.
  AxisBracket bracket(std::size_t axis, double x) const;

  /// Sample at the grid corner selected by `mask` over `brackets` (bit i
  /// set -> axis i uses its hi index).  Returns nullptr when the cell is
  /// incomplete.  `scratch` is reused to avoid allocation on the sparse
  /// fallback path.
  const tunable::QosVector* corner(const std::vector<AxisBracket>& brackets,
                                   std::size_t mask,
                                   ResourcePoint& scratch) const;

  /// Samples flattened in map (lexicographic) order — same iteration order
  /// as the reference nearest-neighbor scan.
  struct FlatSample {
    const ResourcePoint* point;
    const tunable::QosVector* quality;
  };
  const std::vector<FlatSample>& flat() const { return flat_; }

  /// Per-axis sampled span (min/max grid value), used to normalize the
  /// nearest-neighbor distance.
  double span_lo(std::size_t axis) const { return axis_values_[axis].front(); }
  double span_hi(std::size_t axis) const { return axis_values_[axis].back(); }

  bool dense() const { return dense_; }

 private:
  bool dense_ = false;
  const SampleMap* samples_ = nullptr;
  std::vector<std::vector<double>> axis_values_;
  std::vector<std::size_t> strides_;
  // Dense cell table: flattened axis-value coordinates -> sample value
  // (nullptr = hole, i.e. incomplete grid).
  std::vector<const tunable::QosVector*> cells_;
  std::vector<FlatSample> flat_;
};

}  // namespace avf::perfdb
