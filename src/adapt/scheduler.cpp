#include "adapt/scheduler.hpp"

#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"

namespace avf::adapt {

using tunable::ConfigPoint;
using tunable::QosVector;

namespace {

/// A string folds as its bytes, then its length: the length separator
/// distinguishes {"ab","c"} from {"a","bc"}.
void fold_str(util::Fnv1aFold& f, const std::string& s) {
  f.bytes(s.data(), s.size()).u64(s.size());
}

// Everything that shapes the decision function besides the database and the
// query point: preference list (names, constraint ranges, objectives,
// directions — declaration sites excluded) and the scheduler options.
std::uint64_t fingerprint_selector(const PreferenceList& prefs,
                                   const ResourceScheduler::Options& opts) {
  util::Fnv1aFold h;
  h.u64(prefs.size());
  for (const UserPreference& p : prefs) {
    fold_str(h, p.name);
    h.u64(p.constraints.size());
    for (const MetricRange& r : p.constraints) {
      fold_str(h, r.metric);
      h.f64(r.min).f64(r.max);
    }
    fold_str(h, p.objective_metric);
    unsigned char maximize = p.maximize ? 1 : 0;
    h.bytes(&maximize, sizeof(maximize));
  }
  int lookup = static_cast<int>(opts.lookup);
  h.bytes(&lookup, sizeof(lookup)).f64(opts.switch_hysteresis);
  return h.h;
}

}  // namespace

ResourceScheduler::ResourceScheduler(const perfdb::PerfDatabase& db,
                                     PreferenceList preferences)
    : ResourceScheduler(db, std::move(preferences), Options{}) {}

ResourceScheduler::ResourceScheduler(const perfdb::PerfDatabase& db,
                                     PreferenceList preferences,
                                     Options options)
    : db_(db),
      preferences_(std::move(preferences)),
      options_(std::move(options)) {
  if (preferences_.empty()) {
    throw std::invalid_argument("scheduler needs at least one preference");
  }
  for (const UserPreference& p : preferences_) {
    if (!db_.schema().has(p.objective_metric)) {
      throw std::invalid_argument("objective metric not in database schema: " +
                                  p.objective_metric);
    }
  }
  selector_fingerprint_ = fingerprint_selector(preferences_, options_);
}

const std::vector<ResourceScheduler::Candidate>& ResourceScheduler::evaluate(
    const perfdb::ResourcePoint& resources) const {
  scratch_.clear();
  db_.for_each_config([&](const ConfigPoint& config) {
    auto predicted = db_.predict(config, resources, options_.lookup);
    if (predicted) {
      scratch_.push_back(Candidate{&config, std::move(*predicted)});
    }
  });
  return scratch_;
}

std::optional<Decision> ResourceScheduler::decide(
    const std::vector<Candidate>& all) const {
  if (all.empty()) return std::nullopt;

  for (std::size_t pi = 0; pi < preferences_.size(); ++pi) {
    const UserPreference& pref = preferences_[pi];
    const Candidate* best = nullptr;
    for (const Candidate& c : all) {
      if (!pref.satisfied_by(c.predicted)) continue;
      if (best == nullptr ||
          pref.better(c.predicted.get(pref.objective_metric),
                      best->predicted.get(pref.objective_metric))) {
        best = &c;
      }
    }
    if (best != nullptr) {
      return Decision{*best->config, pi, best->predicted, pi != 0};
    }
  }

  // Nothing satisfies any preference: best-effort on the last preference's
  // objective, ignoring its constraints.
  const UserPreference& pref = preferences_.back();
  const Candidate* best = nullptr;
  for (const Candidate& c : all) {
    if (best == nullptr ||
        pref.better(c.predicted.get(pref.objective_metric),
                    best->predicted.get(pref.objective_metric))) {
      best = &c;
    }
  }
  return Decision{*best->config, preferences_.size() - 1, best->predicted,
                  true};
}

std::optional<Decision> ResourceScheduler::select(
    const perfdb::ResourcePoint& resources) const {
  if (options_.decision_cache) return select_cached(resources, nullptr);
  return select_uncached(resources, nullptr);
}

std::optional<Decision> ResourceScheduler::select_with_incumbent(
    const perfdb::ResourcePoint& resources,
    const ConfigPoint& incumbent) const {
  if (options_.decision_cache) return select_cached(resources, &incumbent);
  return select_uncached(resources, &incumbent);
}

std::optional<Decision> ResourceScheduler::select_cached(
    const perfdb::ResourcePoint& resources,
    const ConfigPoint* incumbent) const {
  DecisionCache& cache = *options_.decision_cache;
  DecisionCache::Query query;
  query.db_uid = db_.uid();
  query.db_epoch = db_.mutation_epoch();
  query.selector_fingerprint = selector_fingerprint_;
  query.has_incumbent = incumbent != nullptr;
  if (incumbent != nullptr) query.incumbent_key = incumbent->key();
  query.resources = &resources;
  if (const std::optional<Decision>* hit = cache.lookup(query)) return *hit;
  std::optional<Decision> fresh = select_uncached(resources, incumbent);
  cache.store(query, fresh);
  return fresh;
}

const ResourceScheduler::Candidate* ResourceScheduler::find_incumbent(
    const ConfigPoint& incumbent, const std::vector<Candidate>& all) const {
  for (const Candidate& c : all) {
    if (*c.config == incumbent) return &c;
  }
  return nullptr;
}

std::optional<Decision> ResourceScheduler::select_uncached(
    const perfdb::ResourcePoint& resources,
    const ConfigPoint* incumbent_ptr) const {
  const std::vector<Candidate>& all = evaluate(resources);
  auto decision = decide(all);
  if (incumbent_ptr == nullptr) return decision;
  const ConfigPoint& incumbent = *incumbent_ptr;
  if (!decision || decision->config == incumbent) return decision;
  if (options_.switch_hysteresis <= 0.0) return decision;

  // Keep the incumbent unless it violates the winning preference's
  // constraints or the challenger's objective advantage exceeds the margin.
  // The incumbent's prediction was already computed with everyone else's.
  const Candidate* incumbent_candidate = find_incumbent(incumbent, all);
  if (incumbent_candidate == nullptr) return decision;
  const UserPreference& pref = preferences_[decision->preference_index];
  if (!pref.satisfied_by(incumbent_candidate->predicted)) return decision;

  double challenger = decision->predicted.get(pref.objective_metric);
  double current = incumbent_candidate->predicted.get(pref.objective_metric);
  double margin = options_.switch_hysteresis *
                  std::max(std::abs(current), 1e-12);
  bool clearly_better = pref.maximize ? challenger > current + margin
                                      : challenger < current - margin;
  if (!clearly_better) {
    return Decision{incumbent, decision->preference_index,
                    incumbent_candidate->predicted,
                    decision->fell_through};
  }
  return decision;
}

}  // namespace avf::adapt
