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
using tunable::QosVector;

ProfilingDriver::ProfilingDriver(RunFn run)
    : make_run_([run = std::move(run)] { return run; }) {}

ProfilingDriver::ProfilingDriver(RunFn run, Options options)
    : make_run_([run = std::move(run)] { return run; }),
      options_(std::move(options)) {}

ProfilingDriver::ProfilingDriver(RunFactory make_run, Options options)
    : make_run_(std::move(make_run)), options_(std::move(options)) {}

std::size_t ProfilingDriver::effective_threads() const {
  return util::ThreadPool::resolve_threads(options_.threads);
}

void ProfilingDriver::validate_grid(
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
}

std::vector<ConfigPoint> ProfilingDriver::enumerate_configs(
    const tunable::AppSpec& spec) const {
  std::vector<ConfigPoint> configs = spec.space().enumerate();
  if (configs.empty()) {
    throw std::invalid_argument("configuration space is empty");
  }
  return configs;
}

std::vector<ResourcePoint> ProfilingDriver::enumerate_points(
    const std::vector<std::vector<double>>& grid) const {
  // Odometer over the resource grid, last axis fastest — the canonical
  // sweep order shared by the serial and parallel paths.
  std::vector<ResourcePoint> points;
  std::vector<std::size_t> idx(grid.size(), 0);
  for (;;) {
    ResourcePoint point(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      point[i] = grid[i][idx[i]];
    }
    points.push_back(std::move(point));
    std::size_t i = grid.size();
    bool done = true;
    while (i-- > 0) {
      if (++idx[i] < grid[i].size()) {
        done = false;
        break;
      }
      idx[i] = 0;
    }
    if (done) break;
  }
  return points;
}

PerfDatabase ProfilingDriver::profile_serial(
    const tunable::AppSpec& spec,
    const std::vector<std::vector<double>>& grid) const {
  validate_grid(spec, grid);
  PerfDatabase db(spec.resource_axes(), spec.metrics());
  std::vector<ConfigPoint> configs = enumerate_configs(spec);
  RunFn run = make_run_();
  std::vector<PerfRecord> batch;
  for (const ResourcePoint& point : enumerate_points(grid)) {
    for (const ConfigPoint& config : configs) {
      if (options_.on_run) options_.on_run(config, point);
      batch.push_back(PerfRecord{config, point, run(config, point)});
    }
  }
  db.insert_batch(batch);
  for (int round = 0; round < options_.refinement_rounds; ++round) {
    if (refine(db) == 0) break;
  }
  return db;
}

PerfDatabase ProfilingDriver::profile(
    const tunable::AppSpec& spec,
    const std::vector<std::vector<double>>& grid) const {
  std::size_t threads = effective_threads();
  if (threads <= 1) return profile_serial(spec, grid);

  validate_grid(spec, grid);
  PerfDatabase db(spec.resource_axes(), spec.metrics());
  std::vector<ConfigPoint> configs = enumerate_configs(spec);
  std::vector<ResourcePoint> points = enumerate_points(grid);

  util::ThreadPool pool(threads);
  // One RunFn per worker (plus a spare slot for the calling thread, which
  // can only execute tasks during teardown): testbed state is per-worker,
  // never shared.
  std::vector<RunFn> runs(pool.size() + 1);
  for (RunFn& r : runs) r = make_run_();

  // Shard the (point, config) cartesian product across the pool; buffer
  // every result, then commit in canonical sweep order so the database —
  // and its save() bytes — are bit-for-bit those of profile_serial().
  const std::size_t total = points.size() * configs.size();
  std::vector<QosVector> results(total);
  pool.parallel_for(total, [&](std::size_t t) {
    const ConfigPoint& config = configs[t % configs.size()];
    const ResourcePoint& point = points[t / configs.size()];
    results[t] = runs[pool.current_worker()](config, point);
  });

  std::vector<PerfRecord> batch;
  batch.reserve(total);
  for (std::size_t t = 0; t < total; ++t) {
    const ConfigPoint& config = configs[t % configs.size()];
    const ResourcePoint& point = points[t / configs.size()];
    if (options_.on_run) options_.on_run(config, point);
    batch.push_back(PerfRecord{config, point, std::move(results[t])});
  }
  db.insert_batch(batch);

  for (int round = 0; round < options_.refinement_rounds; ++round) {
    if (refine(db) == 0) break;
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

std::size_t ProfilingDriver::refine(PerfDatabase& db) const {
  std::size_t threads = effective_threads();
  std::vector<RefinementSuggestion> suggestions =
      sensitivity_analysis(db, options_.sensitivity_threshold, threads);
  std::vector<const RefinementSuggestion*> picked =
      select_suggestions(suggestions);
  if (picked.empty()) return 0;

  if (threads <= 1) {
    RunFn run = make_run_();
    std::vector<PerfRecord> batch;
    for (const RefinementSuggestion* s : picked) {
      if (options_.on_run) options_.on_run(s->config, s->point);
      batch.push_back(
          PerfRecord{s->config, s->point, run(s->config, s->point)});
    }
    db.insert_batch(batch);
    return picked.size();
  }

  util::ThreadPool pool(threads);
  std::vector<RunFn> runs(pool.size() + 1);
  for (RunFn& r : runs) r = make_run_();
  std::vector<QosVector> results(picked.size());
  pool.parallel_for(picked.size(), [&](std::size_t i) {
    results[i] = runs[pool.current_worker()](picked[i]->config,
                                             picked[i]->point);
  });
  std::vector<PerfRecord> batch;
  batch.reserve(picked.size());
  for (std::size_t i = 0; i < picked.size(); ++i) {
    if (options_.on_run) options_.on_run(picked[i]->config, picked[i]->point);
    batch.push_back(PerfRecord{picked[i]->config, picked[i]->point,
                               std::move(results[i])});
  }
  db.insert_batch(batch);
  return picked.size();
}

PerfDatabase ProfilingDriver::profile_adaptive(
    const tunable::AppSpec& spec, const std::vector<std::vector<double>>& grid,
    const AdaptiveOptions& adaptive, AdaptiveModel* model_out) const {
  validate_grid(spec, grid);
  if (adaptive.budget == 0) {
    throw std::invalid_argument("adaptive profiling: budget must be >= 1");
  }
  std::vector<ConfigPoint> configs = enumerate_configs(spec);
  std::vector<ResourcePoint> points = enumerate_points(grid);
  const std::size_t total = points.size() * configs.size();
  const std::size_t budget = std::min(adaptive.budget, total);
  const std::vector<tunable::MetricDef>& metric_defs = spec.metrics().metrics();

  // Feature layout: config parameters in ConfigPoint's canonical (sorted
  // name) order, then the spec's resource axes.
  AdaptiveModel model;
  for (const auto& [name, value] : configs.front().values()) {
    (void)value;
    model.feature_names.push_back(name);
  }
  model.config_features = model.feature_names.size();
  for (const std::string& axis : spec.resource_axes()) {
    model.feature_names.push_back(axis);
  }

  auto cell_config = [&](std::size_t t) -> const ConfigPoint& {
    return configs[t % configs.size()];
  };
  auto cell_point = [&](std::size_t t) -> const ResourcePoint& {
    return points[t / configs.size()];
  };

  // One pool + per-worker RunFns for the whole run: rounds are small, so
  // re-hiring workers per round would dominate the sandbox time.
  const std::size_t threads = effective_threads();
  std::optional<util::ThreadPool> pool;
  std::vector<RunFn> runs;
  if (threads > 1 && budget > 1) {
    pool.emplace(threads);
    runs.resize(pool->size() + 1);
  } else {
    runs.resize(1);
  }
  for (RunFn& r : runs) r = make_run_();

  std::vector<char> measured(total, 0);
  std::vector<QosVector> values(total);
  std::size_t measured_count = 0;
  // `cells` arrives sorted ascending: results are committed — and on_run is
  // invoked — in canonical sweep order regardless of thread count.
  auto measure_cells = [&](const std::vector<std::size_t>& cells) {
    std::vector<QosVector> results(cells.size());
    if (pool) {
      pool->parallel_for(cells.size(), [&](std::size_t i) {
        const std::size_t t = cells[i];
        results[i] =
            runs[pool->current_worker()](cell_config(t), cell_point(t));
      });
    } else {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        results[i] = runs.front()(cell_config(cells[i]), cell_point(cells[i]));
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t t = cells[i];
      if (options_.on_run) options_.on_run(cell_config(t), cell_point(t));
      values[t] = std::move(results[i]);
      measured[t] = 1;
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
    for (std::size_t t : sampled) {
      features.push_back(model.features_of(cell_config(t), cell_point(t)));
    }
    model.trees.clear();
    for (const tunable::MetricDef& m : metric_defs) {
      std::vector<TreeSample> samples;
      samples.reserve(sampled.size());
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        samples.push_back(TreeSample{features[i], values[sampled[i]].get(
                                                      m.name)});
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
      std::vector<double> f =
          model.features_of(cell_config(t), cell_point(t));
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

  PerfDatabase db(spec.resource_axes(), spec.metrics());
  std::vector<PerfRecord> batch;
  batch.reserve(total);
  for (std::size_t t = 0; t < total; ++t) {
    const ConfigPoint& config = cell_config(t);
    const ResourcePoint& point = cell_point(t);
    if (measured[t]) {
      batch.push_back(PerfRecord{config, point, std::move(values[t]),
                                 Provenance::kMeasured});
      continue;
    }
    std::vector<double> f = model.features_of(config, point);
    QosVector quality;
    for (const tunable::MetricDef& m : metric_defs) {
      quality.set(m.name, model.trees.at(m.name).predict(f));
    }
    batch.push_back(
        PerfRecord{config, point, std::move(quality), Provenance::kPredicted});
  }
  db.insert_batch(batch);
  if (model_out) *model_out = std::move(model);
  return db;
}

}  // namespace avf::perfdb
