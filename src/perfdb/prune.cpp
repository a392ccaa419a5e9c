#include "perfdb/prune.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace avf::perfdb {

using tunable::ConfigPoint;
using tunable::QosVector;

namespace {

struct ConfigSamples {
  ConfigPoint config;
  std::vector<PerfRecord> records;
};

/// Common resource points of a and b, with paired qualities.
std::vector<std::pair<const QosVector*, const QosVector*>> paired(
    const ConfigSamples& a, const ConfigSamples& b) {
  std::vector<std::pair<const QosVector*, const QosVector*>> out;
  for (const PerfRecord& ra : a.records) {
    for (const PerfRecord& rb : b.records) {
      if (ra.resources == rb.resources) {
        out.emplace_back(&ra.quality, &rb.quality);
        break;
      }
    }
  }
  return out;
}

/// a dominates b: at every common point a's quality is at least as good on
/// all metrics, and strictly dominating at one or more points.
bool dominates(const tunable::MetricSchema& schema, const ConfigSamples& a,
               const ConfigSamples& b) {
  auto pairs = paired(a, b);
  if (pairs.empty()) return false;
  bool strict = false;
  for (auto [qa, qb] : pairs) {
    bool all_geq = true;
    for (const auto& m : schema.metrics()) {
      if (!tunable::at_least_as_good(qa->get(m.name), qb->get(m.name),
                                     m.direction)) {
        all_geq = false;
        break;
      }
    }
    if (!all_geq) return false;
    if (schema.dominates(*qa, *qb)) strict = true;
  }
  return strict;
}

bool equivalent(const tunable::MetricSchema& schema, const ConfigSamples& a,
                const ConfigSamples& b, double epsilon) {
  auto pairs = paired(a, b);
  if (pairs.empty() || pairs.size() != a.records.size() ||
      a.records.size() != b.records.size()) {
    return false;  // only merge configs sampled on the same grid
  }
  return std::all_of(pairs.begin(), pairs.end(), [&](const auto& p) {
    return schema.equivalent(*p.first, *p.second, epsilon);
  });
}

}  // namespace

PruneResult analyze_prune(const PerfDatabase& db, double equivalence_epsilon,
                          std::size_t threads) {
  PruneResult result;
  std::vector<ConfigSamples> all;
  for (const ConfigPoint& c : db.configs()) {
    all.push_back(ConfigSamples{c, db.records(c)});
  }
  const std::size_t n = all.size();

  // The pairwise predicates are pure functions of the sampled records, so
  // they are evaluated up front (fanned out over `threads`); the marking
  // passes below then read the matrices in one fixed order (which
  // representative wins a merge, which domination is discovered first),
  // so the result is the same at any thread count.
  std::vector<char> equiv(n * n, 0);      // row-major, j > i only
  std::vector<char> dominated(n * n, 0);  // [j * n + i]: j dominates i
  util::parallel_for(threads, n, [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      equiv[i * n + j] =
          equivalent(db.schema(), all[i], all[j], equivalence_epsilon);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dominated[j * n + i] = dominates(db.schema(), all[j], all[i]);
    }
  });

  std::vector<bool> removed(n, false);

  // Pass 1: merge equivalent configurations (keep the lexicographically
  // first as representative, matching the paper's "only one of them being
  // stored").
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (removed[j]) continue;
      if (equiv[i * n + j] != 0) {
        removed[j] = true;
        result.merged_into[all[j].config.key()] = all[i].config.key();
      }
    }
  }

  // Pass 2: drop dominated configurations.
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || removed[j]) continue;
      if (dominated[j * n + i] != 0) {
        removed[i] = true;
        result.dominated.push_back(all[i].config);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!removed[i]) result.kept.push_back(all[i].config);
  }
  return result;
}

PerfDatabase apply_prune(const PerfDatabase& db, const PruneResult& result) {
  std::vector<PerfRecord> kept;
  for (const ConfigPoint& c : result.kept) {
    for (const PerfRecord& r : db.records(c)) {
      kept.push_back(PerfRecord{r.config, r.resources, r.quality});
    }
  }
  PerfDatabase out(db.axes(), db.schema());
  out.insert_batch(kept);
  return out;
}

}  // namespace avf::perfdb
