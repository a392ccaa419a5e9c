// The performance database (paper §5): for each configuration, sampled
// mappings from resource conditions to quality metrics, with interpolation
// to predict behavior between samples.
//
// Records live on a per-configuration grid over the application's declared
// resource axes (e.g. cpu_share x net_bps).  `predict` supports two modes:
//   kNearest     — the discrete lookup the paper's prototype used (§7.1);
//   kInterpolate — multilinear interpolation over the bracketing grid cell,
//                  with constant extrapolation outside the sampled hull and
//                  nearest-neighbor fallback for incomplete cells.
//
// Prediction is a hot path: the resource scheduler queries every stored
// configuration on every adaptation decision (§6.2).  Two paths serve it:
//   predict           — GridIndex fast path (per-axis binary search +
//                       dense-cell corner lookup), exact for every query
//                       point and bit-for-bit identical to the reference;
//   predict_reference — the original per-call std::set rebuild, kept as the
//                       consistency oracle for tests and benchmarks.
// Every mutation (insert, insert_batch, erase_config, copy, load) leaves
// the touched configurations' indexes built, so every const member is a
// pure read: one database can be shared by schedulers on many threads.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "perfdb/grid_index.hpp"
#include "tunable/config.hpp"
#include "tunable/qos.hpp"

namespace avf::perfdb {

/// How a prediction reads the grid: the discrete lookup of the paper's
/// prototype, or multilinear interpolation (see the header comment).
enum class Lookup { kNearest, kInterpolate };

/// Where a stored sample came from.  Exhaustive profiling produces only
/// kMeasured cells; adaptive profiling (ProfilingDriver::profile_adaptive)
/// fills the unsampled remainder of the grid with kPredicted cells from its
/// regression trees.  The distinction survives save()/load() — predicted
/// cells are flagged, never silently promoted to measurements.
enum class Provenance {
  kMeasured,   ///< ran in the sandbox
  kPredicted,  ///< regression-tree estimate, bounded-error only
};

struct PerfRecord {
  tunable::ConfigPoint config;
  ResourcePoint resources;
  tunable::QosVector quality;
  Provenance provenance = Provenance::kMeasured;
};

class PerfDatabase {
 public:
  PerfDatabase(std::vector<std::string> resource_axes,
               tunable::MetricSchema schema);

  // Value-semantic.  A copied GridIndex would point into the *source's*
  // sample nodes, so copies rebuild every index against their own nodes.
  // Moves keep indexes: std::map moves preserve node addresses.
  PerfDatabase(const PerfDatabase& other);
  PerfDatabase& operator=(const PerfDatabase& other);
  PerfDatabase(PerfDatabase&& other) noexcept = default;
  PerfDatabase& operator=(PerfDatabase&& other) noexcept = default;

  const std::vector<std::string>& axes() const { return axes_; }
  const tunable::MetricSchema& schema() const { return schema_; }

  /// Process-unique identity of this database *object*.  Copies get a fresh
  /// uid (their contents may diverge from the source); moves transfer it.
  /// Never reused within a process, so (uid, mutation_epoch) pairs are safe
  /// cache keys across database destruction/reallocation.
  std::uint64_t uid() const { return uid_; }
  /// Bumped on every content mutation: once per insert(), once per touched
  /// configuration in insert_batch(), once per erase_config().  Consumers
  /// (the adaptation decision cache) treat a changed epoch as "any prior
  /// prediction may be stale".
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Insert one sample; re-inserting the same (config, point) overwrites
  /// (value and provenance both).  A new point rebuilds the config's grid
  /// index; an overwrite updates it in place.
  void insert(const tunable::ConfigPoint& config, const ResourcePoint& at,
              const tunable::QosVector& quality,
              Provenance provenance = Provenance::kMeasured);

  /// Insert a batch of samples in order.  Equivalent to calling insert()
  /// per record, but each touched configuration bumps the mutation epoch
  /// and rebuilds its grid index once per batch instead of once per sample
  /// — the profiling driver and load() commit whole sweeps through this
  /// path.  Every record is validated before any is inserted, so a bad
  /// record throws std::invalid_argument and leaves the database unchanged.
  void insert_batch(const std::vector<PerfRecord>& records);

  std::size_t size() const { return total_records_; }
  /// Number of stored cells that are tree-predicted rather than measured.
  std::size_t predicted_count() const { return predicted_records_; }
  /// Provenance of the sample at (config, at); nullopt when absent.
  std::optional<Provenance> provenance(const tunable::ConfigPoint& config,
                                       const ResourcePoint& at) const;
  /// All of `config`'s stored samples are predictions (false when the
  /// config is absent or has at least one measured cell).
  bool all_predicted(const tunable::ConfigPoint& config) const;
  std::vector<tunable::ConfigPoint> configs() const;
  /// Visit every stored configuration without copying the points.
  void for_each_config(
      const std::function<void(const tunable::ConfigPoint&)>& fn) const;
  bool has_config(const tunable::ConfigPoint& config) const;
  /// All records for one configuration (unsorted).
  std::vector<PerfRecord> records(const tunable::ConfigPoint& config) const;

  /// Sampled values along `axis` for `config`, sorted ascending.
  std::vector<double> grid_values(const tunable::ConfigPoint& config,
                                  const std::string& axis) const;

  /// Predicted quality for `config` at `at`; nullopt when the config has no
  /// records at all.  Exact for every query point, and a pure read.
  std::optional<tunable::QosVector> predict(
      const tunable::ConfigPoint& config, const ResourcePoint& at,
      Lookup mode = Lookup::kInterpolate) const;

  /// Alias kept only for avf_bench; remove with the next benchmark PR.
  std::optional<tunable::QosVector> predict_uncached(
      const tunable::ConfigPoint& config, const ResourcePoint& at,
      Lookup mode = Lookup::kInterpolate) const {
    return predict(config, at, mode);
  }

  /// Reference (seed) implementation: per-call grid rebuild.  Slow; used by
  /// tests and benchmarks as the consistency oracle.
  std::optional<tunable::QosVector> predict_reference(
      const tunable::ConfigPoint& config, const ResourcePoint& at,
      Lookup mode = Lookup::kInterpolate) const;

  /// Remove an entire configuration (used by pruning).
  void erase_config(const tunable::ConfigPoint& config);

  // -- fast-path observability (bench/test layer) -----------------------
  struct PredictionStats {
    // 0; kept only for avf_bench; remove with the next benchmark PR.
    std::size_t cache_hits = 0;
    // 0; kept only for avf_bench; remove with the next benchmark PR.
    std::size_t cache_misses = 0;
    std::size_t index_rebuilds = 0;  ///< GridIndex builds by mutations
  };
  PredictionStats prediction_stats() const;
  void reset_prediction_stats();

  // -- persistence (CSV: axes..., then metrics..., keyed by config) -----
  /// A database with predicted cells additionally emits an `origin` column
  /// ("measured" / "predicted").  All-measured databases keep the historic
  /// column set, so exhaustive profiles round-trip byte-identically against
  /// pre-provenance files.
  void save(std::ostream& out) const;
  /// Parse a database saved by save().  Throws std::runtime_error naming
  /// the offending row/column on malformed numeric cells and on unknown
  /// metric direction tokens.
  static PerfDatabase load(std::istream& in);

 private:
  struct ConfigData {
    tunable::ConfigPoint config;
    // Keyed by resource point for exact-corner lookup.
    std::map<ResourcePoint, tunable::QosVector> samples;
    // Points whose sample is a tree prediction (absent = measured).
    std::set<ResourcePoint> predicted;
    // Prediction index over `samples`, rebuilt by every mutation that
    // adds a point.
    GridIndex index;
  };

  const ConfigData* find(const tunable::ConfigPoint& config) const;
  void rebuild_index(ConfigData& data);
  tunable::QosVector nearest(const ConfigData& data,
                             const ResourcePoint& at) const;
  std::optional<tunable::QosVector> interpolate(const ConfigData& data,
                                                const ResourcePoint& at) const;
  tunable::QosVector nearest_reference(const ConfigData& data,
                                       const ResourcePoint& at) const;
  std::optional<tunable::QosVector> interpolate_reference(
      const ConfigData& data, const ResourcePoint& at) const;

  std::vector<std::string> axes_;
  tunable::MetricSchema schema_;
  /// Throws std::invalid_argument unless `at` and `quality` fit the
  /// database's axes and schema.
  void validate(const ResourcePoint& at,
                const tunable::QosVector& quality) const;

  static std::uint64_t next_uid();

  std::map<std::string, ConfigData> by_config_;  // key() -> data
  std::uint64_t uid_ = next_uid();
  std::uint64_t mutation_epoch_ = 0;
  std::size_t total_records_ = 0;
  std::size_t predicted_records_ = 0;
  std::size_t index_rebuilds_ = 0;
};

}  // namespace avf::perfdb
