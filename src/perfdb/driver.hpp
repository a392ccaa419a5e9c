// The profiling driver (paper §5): "a driver program executes each
// configuration repeatedly in a virtual execution environment for different
// levels of allocated resources", populating the performance database; the
// sensitivity tool then directs additional sampling where behavior changes
// fast.
//
// The driver is application-agnostic: the caller supplies a RunFn that
// builds a fresh testbed, executes one run of the given configuration under
// the given resource conditions, and returns the measured QoS vector.
//
// Every public call decides *which* (config, point) cells to run and hands
// them to one measure step: the base sweep, each refinement round and each
// adaptive round alike.  The measure step hires its workers once per
// public call — a thread pool when Options::threads resolves to
// more than one, otherwise the calling thread — and fills a batch of
// records in place, in the batch's own order.  Batches are built in
// canonical (grid point, config) order, so the database, including its
// save() bytes, is identical at any thread count; threads = 1 is the
// serial oracle.  Callers with per-run state supply a RunFactory; each
// worker thread then gets its own RunFn, so testbed/sandbox state is never
// shared across threads.
// Adaptive profiling (after "A Decision Tree Based Approach Towards
// Adaptive Profiling of Distributed Applications") caps the sandbox-run
// count instead: profile_adaptive() measures a seeded space-filling sample,
// fits one regression tree per metric, spends the remaining budget on the
// highest-variance leaves, and emits a database where every unmeasured cell
// is tree-predicted and flagged (Provenance::kPredicted).  Predictions are
// validated against the exhaustive profile() by an error-bound test suite,
// not bit-exactness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "perfdb/database.hpp"
#include "perfdb/regression_tree.hpp"
#include "perfdb/sensitivity.hpp"
#include "tunable/app_spec.hpp"

namespace avf::perfdb {

class ProfilingDriver {
 public:
  using RunFn = std::function<tunable::QosVector(const tunable::ConfigPoint&,
                                                 const ResourcePoint&)>;
  /// Makes one RunFn per worker thread; called once per worker per public
  /// call, from the calling thread.
  using RunFactory = std::function<RunFn()>;

  struct Options {
    /// Rounds of sensitivity-directed refinement after the base grid.
    int refinement_rounds = 0;
    /// Relative metric change across one grid gap that triggers refinement.
    double sensitivity_threshold = 0.5;
    /// Cap on extra samples per refinement round (strongest changes first).
    std::size_t max_suggestions_per_round = 32;
    /// Worker threads of every public call: 1 = the calling thread
    /// (default), 0 = hardware_concurrency, N = exactly N workers.
    std::size_t threads = 1;
  };

  /// Single RunFn, shared by all workers.  With threads > 1 the RunFn is
  /// invoked concurrently and must be thread-safe (e.g. build a fresh
  /// testbed per call); use the RunFactory constructor for per-worker
  /// state.
  explicit ProfilingDriver(RunFn run);
  ProfilingDriver(RunFn run, Options options);

  /// Per-worker contexts: `make_run` is invoked once per worker per public
  /// call.
  ProfilingDriver(RunFactory make_run, Options options);

  /// Profile every configuration of `spec` on the cartesian grid given by
  /// `grid[i]` = sample values for spec.resource_axes()[i], then apply the
  /// configured refinement rounds.  Shards runs across Options::threads
  /// workers; the database is byte-identical at any thread count.
  /// Refinement picks are deterministic: suggestions are ranked (strength
  /// desc, config, point) and each round's budget is allocated round-robin
  /// across configurations.
  PerfDatabase profile(const tunable::AppSpec& spec,
                       const std::vector<std::vector<double>>& grid) const;

  struct AdaptiveOptions {
    /// Cap on sandbox runs (cells measured); every other cell of the
    /// configs x grid product is tree-predicted.  Clamped to the cell
    /// count; 0 is invalid.  budget >= |cells| degenerates to profile()
    /// (byte-identical database, no `origin` column).
    std::size_t budget = 0;
    /// Seed of the deterministic space-filling sample (a SplitMix64
    /// Fisher-Yates permutation of the cells).  Same seed + budget =>
    /// byte-identical database at any thread count.
    std::uint64_t seed = 1;
    /// Share of the budget spent on the seeded sample before tree-guided
    /// rounds (at least one cell, at most the whole budget).
    double initial_fraction = 0.5;
    /// Cells measured per tree-guided round.
    std::size_t round_size = 16;
    /// Regression-tree shape (see RegressionTree::Options).
    std::size_t min_leaf = 2;
    std::size_t max_depth = 16;
  };

  /// Budgeted profiling: measure `options.budget` cells (seeded sample +
  /// leaf-variance-guided rounds), then fill the rest of the grid with
  /// regression-tree predictions flagged Provenance::kPredicted.
  /// Options::refinement_rounds is not applied — the tree, not the
  /// sensitivity scan, decides where the budget goes.  Rounds go through
  /// the same measure step as profile(): the database is byte-identical at
  /// any thread count.  The fitted model is returned through `model_out`
  /// when non-null.
  PerfDatabase profile_adaptive(const tunable::AppSpec& spec,
                                const std::vector<std::vector<double>>& grid,
                                const AdaptiveOptions& options,
                                AdaptiveModel* model_out = nullptr) const;

 private:
  class Workers;

  /// Every cell of spec x grid in canonical order (grid point major, last
  /// axis fastest; configs in enumerate() order), qualities empty.
  std::vector<PerfRecord> sweep_cells(
      const tunable::AppSpec& spec,
      const std::vector<std::vector<double>>& grid) const;
  /// One refinement round on `workers`; returns the samples taken.
  std::size_t refine(PerfDatabase& db, Workers& workers) const;
  /// Deterministic refinement picks for one round, in commit order.
  std::vector<const RefinementSuggestion*> select_suggestions(
      const std::vector<RefinementSuggestion>& suggestions) const;

  RunFactory make_run_;
  Options options_{};
};

}  // namespace avf::perfdb
