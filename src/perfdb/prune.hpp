// Maximal-subset pruning of the performance database (paper §5, footnote 1):
// keep only configurations that outperform some other configuration under
// at least one resource situation; merge configurations whose behavior is
// indistinguishable, storing only one representative.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perfdb/database.hpp"

namespace avf::perfdb {

struct PruneResult {
  std::vector<tunable::ConfigPoint> kept;
  /// Dominated configs: strictly worse than some kept config at every
  /// sampled resource point.
  std::vector<tunable::ConfigPoint> dominated;
  /// Equivalence-merged configs: behavior within epsilon of the
  /// representative at every sampled point.  key() -> representative key().
  std::map<std::string, std::string> merged_into;
};

/// Analyze `db`.  Two configs are only compared where they were sampled at
/// identical resource points (the profiling driver samples all configs on
/// one grid, so in practice the full grid).
///
/// The O(n^2) pairwise equivalence/dominance predicates are always
/// precomputed into matrices, fanned out through util::parallel_for on
/// `threads` workers (0 = hardware_concurrency); the keep/merge/dominate
/// marking then reads them serially in one fixed order, so the result is
/// the same at any thread count.
PruneResult analyze_prune(const PerfDatabase& db, double equivalence_epsilon,
                          std::size_t threads = 1);

/// Copy of `db` with dominated and merged configurations removed.
PerfDatabase apply_prune(const PerfDatabase& db, const PruneResult& result);

}  // namespace avf::perfdb
