#include "perfdb/driver.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace avf::perfdb {

using tunable::ConfigPoint;

ProfilingDriver::ProfilingDriver(RunFn run)
    : make_run_([run = std::move(run)] { return run; }) {}

ProfilingDriver::ProfilingDriver(RunFn run, Options options)
    : make_run_([run = std::move(run)] { return run; }),
      options_(std::move(options)) {}

ProfilingDriver::ProfilingDriver(RunFactory make_run, Options options)
    : make_run_(std::move(make_run)), options_(std::move(options)) {}

/// The run contexts of one public call: a pool and one RunFn per worker
/// when Options::threads resolves to more than one (the calling thread
/// only waits); otherwise a single RunFn on the calling thread.
class ProfilingDriver::Workers {
 public:
  Workers(const RunFactory& make_run, std::size_t threads) {
    if (util::ThreadPool::resolve_threads(threads) > 1) pool_.emplace(threads);
    runs_.resize(pool_ ? pool_->size() : 1);
    for (RunFn& run : runs_) run = make_run();
  }

  /// Run every record's cell and fill its quality in place.  The batch
  /// keeps its order, so committing it is canonical at any thread count;
  /// the lowest failing index's exception propagates.
  void measure(std::vector<PerfRecord>& batch) {
    auto run_one = [&](std::size_t i) {
      PerfRecord& r = batch[i];
      r.quality = runs_[pool_ ? pool_->current_worker() : 0](r.config,
                                                             r.resources);
    };
    if (pool_) {
      pool_->parallel_for(batch.size(), run_one);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) run_one(i);
    }
  }

 private:
  std::optional<util::ThreadPool> pool_;
  std::vector<RunFn> runs_;
};

std::vector<PerfRecord> ProfilingDriver::sweep_cells(
    const tunable::AppSpec& spec,
    const std::vector<std::vector<double>>& grid) const {
  if (grid.size() != spec.resource_axes().size()) {
    throw std::invalid_argument(
        util::format("grid has {} axes, spec declares {}", grid.size(),
                     spec.resource_axes().size()));
  }
  for (const auto& axis_values : grid) {
    if (axis_values.empty()) {
      throw std::invalid_argument("empty grid axis");
    }
  }
  const std::vector<ConfigPoint> configs = spec.space().enumerate();
  if (configs.empty()) {
    throw std::invalid_argument("configuration space is empty");
  }
  // Odometer over the resource grid, last axis fastest.
  std::vector<PerfRecord> cells;
  std::vector<std::size_t> idx(grid.size(), 0);
  for (;;) {
    ResourcePoint point(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      point[i] = grid[i][idx[i]];
    }
    for (const ConfigPoint& config : configs) {
      cells.push_back(PerfRecord{config, point, {}});
    }
    std::size_t i = grid.size();
    while (i-- > 0) {
      if (++idx[i] < grid[i].size()) break;
      idx[i] = 0;
      if (i == 0) return cells;
    }
  }
}

PerfDatabase ProfilingDriver::profile(
    const tunable::AppSpec& spec,
    const std::vector<std::vector<double>>& grid) const {
  std::vector<PerfRecord> batch = sweep_cells(spec, grid);
  Workers workers(make_run_, options_.threads);
  workers.measure(batch);
  PerfDatabase db(spec.resource_axes(), spec.metrics());
  db.insert_batch(batch);
  for (int round = 0; round < options_.refinement_rounds; ++round) {
    if (refine(db, workers) == 0) break;
  }
  return db;
}

std::vector<const RefinementSuggestion*> ProfilingDriver::select_suggestions(
    const std::vector<RefinementSuggestion>& suggestions) const {
  // Allocate the per-round budget round-robin across configurations
  // (strongest change first within each): a few very volatile
  // configurations must not starve refinement of everything else.
  // `suggestions` arrives totally ordered (strength desc, then config,
  // point, axis, metric — see sensitivity_analysis), and per_config is an
  // ordered map, so the selection — and therefore the commit order — is
  // identical across runs and thread counts.
  std::map<std::string, std::vector<const RefinementSuggestion*>> per_config;
  for (const RefinementSuggestion& s : suggestions) {
    per_config[s.config.key()].push_back(&s);
  }
  std::vector<const RefinementSuggestion*> picked;
  for (std::size_t rank = 0;
       picked.size() < options_.max_suggestions_per_round; ++rank) {
    bool any = false;
    for (auto& [key, list] : per_config) {
      if (rank >= list.size()) continue;
      any = true;
      picked.push_back(list[rank]);
      if (picked.size() >= options_.max_suggestions_per_round) break;
    }
    if (!any) break;
  }
  return picked;
}

std::size_t ProfilingDriver::refine(PerfDatabase& db, Workers& workers) const {
  std::vector<RefinementSuggestion> suggestions =
      sensitivity_analysis(db, options_.sensitivity_threshold,
                           options_.threads);
  std::vector<PerfRecord> batch;
  for (const RefinementSuggestion* s : select_suggestions(suggestions)) {
    batch.push_back(PerfRecord{s->config, s->point, {}});
  }
  if (batch.empty()) return 0;
  workers.measure(batch);
  db.insert_batch(batch);
  return batch.size();
}

PerfDatabase ProfilingDriver::profile_adaptive(
    const tunable::AppSpec& spec, const std::vector<std::vector<double>>& grid,
    const AdaptiveOptions& adaptive, AdaptiveModel* model_out) const {
  std::vector<PerfRecord> sweep = sweep_cells(spec, grid);
  if (adaptive.budget == 0) {
    throw std::invalid_argument("adaptive profiling: budget must be >= 1");
  }
  const std::size_t total = sweep.size();
  const std::size_t budget = std::min(adaptive.budget, total);
  const std::vector<tunable::MetricDef>& metric_defs = spec.metrics().metrics();

  // Feature layout: config parameters in ConfigPoint's canonical (sorted
  // name) order, then the spec's resource axes.
  AdaptiveModel model;
  for (const auto& [name, value] : sweep.front().config.values()) {
    (void)value;
    model.feature_names.push_back(name);
  }
  model.config_features = model.feature_names.size();
  for (const std::string& axis : spec.resource_axes()) {
    model.feature_names.push_back(axis);
  }
  auto features_of = [&](std::size_t t) {
    return model.features_of(sweep[t].config, sweep[t].resources);
  };

  // One set of workers for every round: rounds are small, so re-hiring
  // workers per round would dominate the sandbox time.
  Workers workers(make_run_, options_.threads);
  std::vector<char> measured(total, 0);
  std::size_t measured_count = 0;
  // `cells` arrives sorted ascending, so each round commits in canonical
  // sweep order.
  auto measure_cells = [&](const std::vector<std::size_t>& cells) {
    std::vector<PerfRecord> batch;
    batch.reserve(cells.size());
    for (std::size_t t : cells) batch.push_back(sweep[t]);
    workers.measure(batch);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sweep[cells[i]].quality = std::move(batch[i].quality);
      measured[cells[i]] = 1;
    }
    measured_count += cells.size();
  };

  // Seeded space-filling sample: the first cells of a Fisher-Yates
  // permutation of the whole grid.  A permutation (rather than a stride)
  // cannot alias with the config count, and SplitMix64 makes it identical
  // across platforms.
  std::vector<std::size_t> perm(total);
  for (std::size_t t = 0; t < total; ++t) perm[t] = t;
  util::SplitMix64 rng(adaptive.seed);
  for (std::size_t i = total - 1; i > 0; --i) {
    std::size_t j = static_cast<std::size_t>(rng.next_below(i + 1));
    std::swap(perm[i], perm[j]);
  }

  std::size_t initial = budget;
  if (budget < total) {
    const double fraction = std::clamp(adaptive.initial_fraction, 0.0, 1.0);
    initial = static_cast<std::size_t>(
        fraction * static_cast<double>(budget) + 0.5);
    initial = std::clamp<std::size_t>(initial, 1, budget);
  }
  {
    std::vector<std::size_t> cells(perm.begin(),
                                   perm.begin() + static_cast<std::ptrdiff_t>(
                                                      initial));
    std::sort(cells.begin(), cells.end());
    measure_cells(cells);
  }

  const RegressionTree::Options tree_options{adaptive.min_leaf,
                                             adaptive.max_depth};
  std::size_t fitted_at = 0;  // measured_count at the last fit (0 = never)
  auto fit_trees = [&] {
    std::vector<std::size_t> sampled;
    sampled.reserve(measured_count);
    for (std::size_t t = 0; t < total; ++t) {
      if (measured[t]) sampled.push_back(t);
    }
    std::vector<std::vector<double>> features;
    features.reserve(sampled.size());
    for (std::size_t t : sampled) features.push_back(features_of(t));
    model.trees.clear();
    for (const tunable::MetricDef& m : metric_defs) {
      std::vector<TreeSample> samples;
      samples.reserve(sampled.size());
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        samples.push_back(
            TreeSample{features[i], sweep[sampled[i]].quality.get(m.name)});
      }
      model.trees[m.name].fit(samples, tree_options);
    }
    fitted_at = measured_count;
  };

  // One tree-guided round: rank leaves by impurity (SSE = variance x count,
  // ties by metric index then leaf node id), then draw unmeasured cells
  // round-robin across the ranked leaves, each leaf's cells in canonical
  // order.  Pure leaves contribute nothing, so a constant metric surface
  // selects nothing and the budget loop terminates instead of spinning.
  auto select_round = [&](std::size_t want) {
    struct Bucket {
      double impurity = 0.0;
      std::size_t metric = 0;
      std::size_t node = 0;
      std::vector<std::size_t> cells;
    };
    std::vector<std::map<std::size_t, RegressionTree::LeafInfo>> leaf_stats(
        metric_defs.size());
    for (std::size_t mi = 0; mi < metric_defs.size(); ++mi) {
      for (const RegressionTree::LeafInfo& leaf :
           model.trees.at(metric_defs[mi].name).leaves()) {
        leaf_stats[mi].emplace(leaf.node, leaf);
      }
    }
    std::vector<Bucket> buckets;
    std::vector<std::map<std::size_t, std::size_t>> where(metric_defs.size());
    for (std::size_t t = 0; t < total; ++t) {
      if (measured[t]) continue;
      std::vector<double> f = features_of(t);
      for (std::size_t mi = 0; mi < metric_defs.size(); ++mi) {
        const RegressionTree& tree = model.trees.at(metric_defs[mi].name);
        const std::size_t node = tree.leaf_of(f);
        const RegressionTree::LeafInfo& info = leaf_stats[mi].at(node);
        if (info.variance <= 0.0) continue;
        auto [it, fresh] = where[mi].try_emplace(node, buckets.size());
        if (fresh) {
          buckets.push_back(
              Bucket{info.variance * static_cast<double>(info.count), mi,
                     node,
                     {}});
        }
        buckets[it->second].cells.push_back(t);
      }
    }
    std::vector<std::size_t> order(buckets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Bucket& x = buckets[a];
      const Bucket& y = buckets[b];
      if (x.impurity != y.impurity) return x.impurity > y.impurity;
      return std::tie(x.metric, x.node) < std::tie(y.metric, y.node);
    });
    std::vector<std::size_t> chosen;
    std::vector<char> picked(total, 0);
    for (std::size_t rank = 0; chosen.size() < want; ++rank) {
      bool any = false;
      for (std::size_t bi : order) {
        const Bucket& bucket = buckets[bi];
        if (rank >= bucket.cells.size()) continue;
        any = true;
        const std::size_t t = bucket.cells[rank];
        if (picked[t]) continue;
        picked[t] = 1;
        chosen.push_back(t);
        if (chosen.size() >= want) break;
      }
      if (!any) break;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  };

  while (measured_count < budget) {
    fit_trees();
    const std::size_t want =
        std::min(std::max<std::size_t>(adaptive.round_size, 1),
                 budget - measured_count);
    std::vector<std::size_t> chosen = select_round(want);
    if (chosen.empty()) break;  // every unmeasured cell sits in a pure leaf
    measure_cells(chosen);
  }
  if (fitted_at != measured_count) fit_trees();

  for (std::size_t t = 0; t < total; ++t) {
    if (measured[t]) continue;
    std::vector<double> f = features_of(t);
    for (const tunable::MetricDef& m : metric_defs) {
      sweep[t].quality.set(m.name, model.trees.at(m.name).predict(f));
    }
    sweep[t].provenance = Provenance::kPredicted;
  }
  PerfDatabase db(spec.resource_axes(), spec.metrics());
  db.insert_batch(sweep);
  if (model_out) *model_out = std::move(model);
  return db;
}

}  // namespace avf::perfdb
