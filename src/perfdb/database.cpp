#include "perfdb/database.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace avf::perfdb {

using tunable::ConfigPoint;
using tunable::QosVector;

std::uint64_t PerfDatabase::next_uid() {
  // avf-srclint: allow(src.mutable-static an identity counter: decision-cache keys compare uids for equality only, so no trace reads the value)
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

PerfDatabase::PerfDatabase(std::vector<std::string> resource_axes,
                           tunable::MetricSchema schema)
    : axes_(std::move(resource_axes)), schema_(std::move(schema)) {
  if (axes_.empty()) {
    throw std::invalid_argument("database needs at least one resource axis");
  }
  if (schema_.metrics().empty()) {
    throw std::invalid_argument("database needs at least one metric");
  }
}

PerfDatabase::PerfDatabase(const PerfDatabase& other)
    : axes_(other.axes_),
      schema_(other.schema_),
      by_config_(other.by_config_),
      total_records_(other.total_records_),
      predicted_records_(other.predicted_records_),
      index_rebuilds_(other.index_rebuilds_) {
  // The copied indexes hold pointers into `other`'s sample nodes; rebuild
  // them against this copy's own nodes.  `uid_` deliberately stays the
  // fresh default-initialized one: the copy is a distinct object whose
  // contents may diverge from the source.
  for (auto& [key, data] : by_config_) rebuild_index(data);
}

PerfDatabase& PerfDatabase::operator=(const PerfDatabase& other) {
  if (this != &other) {
    PerfDatabase tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void PerfDatabase::validate(const ResourcePoint& at,
                            const QosVector& quality) const {
  if (at.size() != axes_.size()) {
    throw std::invalid_argument(
        util::format("resource point has {} axes, database has {}", at.size(),
                     axes_.size()));
  }
  for (const auto& m : schema_.metrics()) {
    if (!quality.try_get(m.name)) {
      throw std::invalid_argument(
          util::format("sample missing metric: {}", m.name));
    }
  }
}

void PerfDatabase::rebuild_index(ConfigData& data) {
  data.index.build(data.samples, axes_.size());
  ++index_rebuilds_;
}

void PerfDatabase::insert(const ConfigPoint& config, const ResourcePoint& at,
                          const QosVector& quality, Provenance provenance) {
  insert_batch({PerfRecord{config, at, quality, provenance}});
}

void PerfDatabase::insert_batch(const std::vector<PerfRecord>& records) {
  for (const PerfRecord& r : records) validate(r.resources, r.quality);
  // Touched configurations, by key; true when one gained a new point (an
  // overwrite updates the indexed value in place, so needs no rebuild).
  std::map<std::string, bool> touched;
  for (const PerfRecord& r : records) {
    std::string key = r.config.key();
    ConfigData& data = by_config_[key];
    data.config = r.config;
    const bool inserted =
        data.samples.insert_or_assign(r.resources, r.quality).second;
    if (inserted) ++total_records_;
    if (r.provenance == Provenance::kPredicted) {
      if (data.predicted.insert(r.resources).second) ++predicted_records_;
    } else if (data.predicted.erase(r.resources) > 0) {
      --predicted_records_;
    }
    touched[std::move(key)] |= inserted;
  }
  for (const auto& [key, grew] : touched) {
    if (grew) rebuild_index(by_config_.at(key));
    ++mutation_epoch_;
  }
}

std::optional<Provenance> PerfDatabase::provenance(
    const ConfigPoint& config, const ResourcePoint& at) const {
  const ConfigData* data = find(config);
  if (data == nullptr || !data->samples.contains(at)) return std::nullopt;
  return data->predicted.contains(at) ? Provenance::kPredicted
                                      : Provenance::kMeasured;
}

bool PerfDatabase::all_predicted(const ConfigPoint& config) const {
  const ConfigData* data = find(config);
  return data != nullptr && !data->samples.empty() &&
         data->predicted.size() == data->samples.size();
}

std::vector<ConfigPoint> PerfDatabase::configs() const {
  std::vector<ConfigPoint> out;
  out.reserve(by_config_.size());
  for (const auto& [key, data] : by_config_) out.push_back(data.config);
  return out;
}

void PerfDatabase::for_each_config(
    const std::function<void(const ConfigPoint&)>& fn) const {
  for (const auto& [key, data] : by_config_) fn(data.config);
}

bool PerfDatabase::has_config(const ConfigPoint& config) const {
  return by_config_.contains(config.key());
}

std::vector<PerfRecord> PerfDatabase::records(const ConfigPoint& config) const {
  std::vector<PerfRecord> out;
  const ConfigData* data = find(config);
  if (data == nullptr) return out;
  for (const auto& [point, quality] : data->samples) {
    out.push_back(PerfRecord{data->config, point, quality,
                             data->predicted.contains(point)
                                 ? Provenance::kPredicted
                                 : Provenance::kMeasured});
  }
  return out;
}

std::vector<double> PerfDatabase::grid_values(const ConfigPoint& config,
                                              const std::string& axis) const {
  auto it = std::find(axes_.begin(), axes_.end(), axis);
  if (it == axes_.end()) {
    throw std::out_of_range(util::format("no such axis: {}", axis));
  }
  std::size_t ai = static_cast<std::size_t>(it - axes_.begin());
  const ConfigData* data = find(config);
  if (data == nullptr) return {};
  return data->index.axis_values(ai);
}

const PerfDatabase::ConfigData* PerfDatabase::find(
    const ConfigPoint& config) const {
  auto it = by_config_.find(config.key());
  return it == by_config_.end() ? nullptr : &it->second;
}

void PerfDatabase::erase_config(const ConfigPoint& config) {
  auto it = by_config_.find(config.key());
  if (it != by_config_.end()) {
    total_records_ -= it->second.samples.size();
    predicted_records_ -= it->second.predicted.size();
    by_config_.erase(it);
    ++mutation_epoch_;
  }
}

// ---------------------------------------------------------------------------
// Indexed fast path.

tunable::QosVector PerfDatabase::nearest(const ConfigData& data,
                                         const ResourcePoint& at) const {
  // Normalize each axis by its sampled span so axes with different units
  // (shares vs bytes/s) weigh equally.  Spans and iteration order come from
  // the index; the arithmetic matches nearest_reference exactly.
  const GridIndex& index = data.index;
  const QosVector* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const GridIndex::FlatSample& sample : index.flat()) {
    double dist = 0.0;
    for (std::size_t i = 0; i < axes_.size(); ++i) {
      double span = index.span_hi(i) - index.span_lo(i);
      double d = span > 0.0 ? ((*sample.point)[i] - at[i]) / span : 0.0;
      dist += d * d;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = sample.quality;
    }
  }
  return *best;
}

std::optional<QosVector> PerfDatabase::interpolate(
    const ConfigData& data, const ResourcePoint& at) const {
  // Per-axis bracketing over the sampled grid; clamp outside the hull
  // (constant extrapolation).  O(axes * log n) bracketing + O(1) dense
  // corner lookup, replacing the reference per-call std::set rebuild.
  const GridIndex& index = data.index;
  std::size_t d = axes_.size();
  std::vector<GridIndex::AxisBracket> brackets(d);
  for (std::size_t i = 0; i < d; ++i) brackets[i] = index.bracket(i, at[i]);

  QosVector out;
  for (const auto& m : schema_.metrics()) out.set(m.name, 0.0);
  ResourcePoint scratch;
  std::size_t corners = std::size_t{1} << d;
  for (std::size_t mask = 0; mask < corners; ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < d; ++i) {
      weight *= (mask & (std::size_t{1} << i)) ? brackets[i].t
                                               : (1.0 - brackets[i].t);
    }
    if (weight == 0.0) continue;
    const QosVector* corner = index.corner(brackets, mask, scratch);
    if (corner == nullptr) return std::nullopt;  // incomplete cell
    for (const auto& m : schema_.metrics()) {
      out.set(m.name, out.get(m.name) + weight * corner->get(m.name));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference (seed) implementation, kept as the consistency oracle.

tunable::QosVector PerfDatabase::nearest_reference(
    const ConfigData& data, const ResourcePoint& at) const {
  std::vector<double> lo(axes_.size(), std::numeric_limits<double>::infinity());
  std::vector<double> hi(axes_.size(),
                         -std::numeric_limits<double>::infinity());
  for (const auto& [point, quality] : data.samples) {
    for (std::size_t i = 0; i < axes_.size(); ++i) {
      lo[i] = std::min(lo[i], point[i]);
      hi[i] = std::max(hi[i], point[i]);
    }
  }
  const QosVector* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto& [point, quality] : data.samples) {
    double dist = 0.0;
    for (std::size_t i = 0; i < axes_.size(); ++i) {
      double span = hi[i] - lo[i];
      double d = span > 0.0 ? (point[i] - at[i]) / span : 0.0;
      dist += d * d;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = &quality;
    }
  }
  return *best;
}

std::optional<QosVector> PerfDatabase::interpolate_reference(
    const ConfigData& data, const ResourcePoint& at) const {
  std::size_t d = axes_.size();
  std::vector<double> lo(d), hi(d), t(d);
  for (std::size_t i = 0; i < d; ++i) {
    std::set<double> values;
    for (const auto& [point, quality] : data.samples) values.insert(point[i]);
    double x = at[i];
    auto ge = values.lower_bound(x);
    if (ge == values.end()) {
      lo[i] = hi[i] = *values.rbegin();
      t[i] = 0.0;
    } else if (*ge == x || ge == values.begin()) {
      lo[i] = hi[i] = *ge;
      t[i] = 0.0;
    } else {
      hi[i] = *ge;
      lo[i] = *std::prev(ge);
      t[i] = (x - lo[i]) / (hi[i] - lo[i]);
    }
  }
  QosVector out;
  for (const auto& m : schema_.metrics()) out.set(m.name, 0.0);
  std::size_t corners = 1u << d;
  for (std::size_t mask = 0; mask < corners; ++mask) {
    double weight = 1.0;
    ResourcePoint corner(d);
    for (std::size_t i = 0; i < d; ++i) {
      if (mask & (1u << i)) {
        corner[i] = hi[i];
        weight *= t[i];
      } else {
        corner[i] = lo[i];
        weight *= (1.0 - t[i]);
      }
    }
    if (weight == 0.0) continue;
    auto it = data.samples.find(corner);
    if (it == data.samples.end()) return std::nullopt;  // incomplete cell
    for (const auto& m : schema_.metrics()) {
      out.set(m.name, out.get(m.name) + weight * it->second.get(m.name));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prediction entry points.

std::optional<QosVector> PerfDatabase::predict(const ConfigPoint& config,
                                               const ResourcePoint& at,
                                               Lookup mode) const {
  if (at.size() != axes_.size()) {
    throw std::invalid_argument("resource point dimension mismatch");
  }
  const ConfigData* data = find(config);
  if (data == nullptr) return std::nullopt;
  if (mode == Lookup::kInterpolate) {
    if (auto result = interpolate(*data, at)) return result;
  }
  return nearest(*data, at);
}

std::optional<QosVector> PerfDatabase::predict_reference(
    const ConfigPoint& config, const ResourcePoint& at, Lookup mode) const {
  if (at.size() != axes_.size()) {
    throw std::invalid_argument("resource point dimension mismatch");
  }
  const ConfigData* data = find(config);
  if (data == nullptr) return std::nullopt;
  if (mode == Lookup::kInterpolate) {
    if (auto result = interpolate_reference(*data, at)) return result;
  }
  return nearest_reference(*data, at);
}

PerfDatabase::PredictionStats PerfDatabase::prediction_stats() const {
  return PredictionStats{0, 0, index_rebuilds_};
}

void PerfDatabase::reset_prediction_stats() { index_rebuilds_ = 0; }

// ---------------------------------------------------------------------------
// Persistence.

void PerfDatabase::save(std::ostream& out) const {
  // The `origin` column only appears when there is something to flag: an
  // all-measured database keeps the historic column set, so adaptive
  // profiling at full budget stays byte-identical to exhaustive profiling
  // and old CSV files remain valid round-trip fixtures.
  const bool with_origin = predicted_records_ > 0;
  std::vector<std::string> header{"config"};
  for (const auto& axis : axes_) header.push_back("res:" + axis);
  for (const auto& m : schema_.metrics()) {
    header.push_back(util::format(
        "metric:{}:{}", m.name,
        m.direction == tunable::Direction::kLowerBetter ? "lower" : "higher"));
  }
  if (with_origin) header.push_back("origin");
  util::CsvWriter writer(out, header);
  for (const auto& [key, data] : by_config_) {
    for (const auto& [point, quality] : data.samples) {
      std::vector<std::string> row{key};
      for (double v : point) row.push_back(util::CsvWriter::field(v));
      for (const auto& m : schema_.metrics()) {
        row.push_back(util::CsvWriter::field(quality.get(m.name)));
      }
      if (with_origin) {
        row.push_back(data.predicted.contains(point) ? "predicted"
                                                     : "measured");
      }
      writer.row(row);
    }
  }
}

namespace {
/// Strict double parse for one CSV cell; rejects empty cells, garbage, and
/// trailing characters, and reports the data row (1-based) and column name.
double parse_numeric_cell(const std::string& cell, std::size_t row,
                          const std::string& column) {
  std::size_t consumed = 0;
  double value = 0.0;
  bool ok = true;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    ok = false;
  }
  if (ok && consumed != cell.size()) ok = false;  // trailing garbage
  if (!ok) {
    throw std::runtime_error(
        util::format("perfdb load: bad numeric value '{}' (row {}, column {})",
                     cell, row, column));
  }
  return value;
}
}  // namespace

PerfDatabase PerfDatabase::load(std::istream& in) {
  util::CsvDocument doc = util::read_csv(in);
  std::vector<std::string> axes;
  tunable::MetricSchema schema;
  std::vector<std::size_t> axis_cols, metric_cols;
  std::vector<std::string> metric_names;
  std::optional<std::size_t> origin_col;
  for (std::size_t c = 0; c < doc.header.size(); ++c) {
    const std::string& h = doc.header[c];
    if (h == "origin") {
      origin_col = c;
    } else if (h.starts_with("res:")) {
      axes.push_back(h.substr(4));
      axis_cols.push_back(c);
    } else if (h.starts_with("metric:")) {
      std::size_t second = h.find(':', 7);
      if (second == std::string::npos) {
        throw std::runtime_error(util::format("bad metric header: {}", h));
      }
      std::string name = h.substr(7, second - 7);
      std::string dir = h.substr(second + 1);
      if (dir == "higher") {
        schema.add(name, tunable::Direction::kHigherBetter);
      } else if (dir == "lower") {
        schema.add(name, tunable::Direction::kLowerBetter);
      } else {
        throw std::runtime_error(util::format(
            "perfdb load: unknown metric direction '{}' in header '{}'", dir,
            h));
      }
      metric_cols.push_back(c);
      metric_names.push_back(name);
    }
  }
  std::size_t config_col = doc.column("config");
  PerfDatabase db(std::move(axes), std::move(schema));
  std::vector<PerfRecord> records;
  records.reserve(doc.rows.size());
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    ConfigPoint config = ConfigPoint::parse(row[config_col]);
    ResourcePoint point;
    point.reserve(axis_cols.size());
    for (std::size_t c : axis_cols) {
      point.push_back(parse_numeric_cell(row[c], r + 1, doc.header[c]));
    }
    QosVector quality;
    for (std::size_t i = 0; i < metric_cols.size(); ++i) {
      quality.set(metric_names[i], parse_numeric_cell(row[metric_cols[i]],
                                                      r + 1,
                                                      doc.header[metric_cols[i]]));
    }
    Provenance provenance = Provenance::kMeasured;
    if (origin_col) {
      const std::string& cell = row[*origin_col];
      if (cell == "predicted") {
        provenance = Provenance::kPredicted;
      } else if (cell != "measured") {
        throw std::runtime_error(util::format(
            "perfdb load: unknown origin '{}' (row {}, column origin)", cell,
            r + 1));
      }
    }
    records.push_back(PerfRecord{std::move(config), std::move(point),
                                 std::move(quality), provenance});
  }
  db.insert_batch(records);
  return db;
}

}  // namespace avf::perfdb
