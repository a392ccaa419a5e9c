#include "perfdb/grid_index.hpp"

#include <algorithm>

namespace avf::perfdb {

namespace {
// Cap on the dense cell table, relative to the sample count: a complete
// grid has exactly one cell per sample, so anything much larger means the
// samples are scattered (not gridded) and a dense table would waste memory
// on holes.  Sparse configs fall back to ordered-map corner lookup.
constexpr std::size_t kCellTableSlackFactor = 8;
constexpr std::size_t kCellTableMinCells = 4096;
}  // namespace

void GridIndex::build(const SampleMap& samples, std::size_t axis_count) {
  samples_ = &samples;
  axis_values_.assign(axis_count, {});
  flat_.clear();
  flat_.reserve(samples.size());
  for (const auto& [point, quality] : samples) {
    for (std::size_t i = 0; i < axis_count; ++i) {
      axis_values_[i].push_back(point[i]);
    }
    flat_.push_back(FlatSample{&point, &quality});
  }
  std::size_t cell_count = samples.empty() ? 0 : 1;
  for (auto& values : axis_values_) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    cell_count *= values.size();
  }

  std::size_t dense_limit =
      std::max(kCellTableMinCells, samples.size() * kCellTableSlackFactor);
  dense_ = cell_count > 0 && cell_count <= dense_limit;
  cells_.clear();
  strides_.assign(axis_count, 1);
  if (dense_) {
    for (std::size_t i = axis_count; i-- > 1;) {
      strides_[i - 1] = strides_[i] * axis_values_[i].size();
    }
    cells_.assign(cell_count, nullptr);
    for (const auto& [point, quality] : samples) {
      std::size_t flat_index = 0;
      for (std::size_t i = 0; i < axis_count; ++i) {
        const auto& values = axis_values_[i];
        auto it = std::lower_bound(values.begin(), values.end(), point[i]);
        flat_index += static_cast<std::size_t>(it - values.begin()) *
                      strides_[i];
      }
      cells_[flat_index] = &quality;
    }
  }
}

GridIndex::AxisBracket GridIndex::bracket(std::size_t axis, double x) const {
  // Mirrors the reference std::set logic exactly: clamp above the sampled
  // span to the top value, clamp below (or an exact hit) to the lower
  // bound, otherwise interpolate within the bracketing pair.
  const std::vector<double>& values = axis_values_[axis];
  AxisBracket out;
  auto ge = std::lower_bound(values.begin(), values.end(), x);
  if (ge == values.end()) {
    out.lo = out.hi = values.size() - 1;
    out.lo_value = out.hi_value = values.back();
    out.t = 0.0;
  } else if (*ge == x || ge == values.begin()) {
    out.lo = out.hi = static_cast<std::size_t>(ge - values.begin());
    out.lo_value = out.hi_value = *ge;
    out.t = 0.0;
  } else {
    out.hi = static_cast<std::size_t>(ge - values.begin());
    out.lo = out.hi - 1;
    out.hi_value = *ge;
    out.lo_value = values[out.lo];
    out.t = (x - out.lo_value) / (out.hi_value - out.lo_value);
  }
  return out;
}

const tunable::QosVector* GridIndex::corner(
    const std::vector<AxisBracket>& brackets, std::size_t mask,
    ResourcePoint& scratch) const {
  if (dense_) {
    std::size_t flat_index = 0;
    for (std::size_t i = 0; i < brackets.size(); ++i) {
      std::size_t idx =
          (mask & (std::size_t{1} << i)) ? brackets[i].hi : brackets[i].lo;
      flat_index += idx * strides_[i];
    }
    return cells_[flat_index];
  }
  scratch.resize(brackets.size());
  for (std::size_t i = 0; i < brackets.size(); ++i) {
    scratch[i] = (mask & (std::size_t{1} << i)) ? brackets[i].hi_value
                                                : brackets[i].lo_value;
  }
  auto it = samples_->find(scratch);
  return it == samples_->end() ? nullptr : &it->second;
}

}  // namespace avf::perfdb
