// The resource scheduler (paper §6.2): given measured resource
// characteristics and the user preference list, prune candidate
// configurations against the constraints using the performance database
// (with interpolation), then pick the one that best satisfies the objective
// of the most preferred satisfiable constraint.
//
// Predictions go through PerfDatabase::predict, which is exact and a pure
// read of the database, so a decision is a pure function of (database
// contents, preferences, options, inputs).  The candidate vector is reused
// across calls (capacity kept), and select_with_incumbent evaluates the
// candidate set once, sharing it between the fresh selection and the
// hysteresis check instead of re-querying the database for the incumbent.
//
// At fleet scale whole *decisions* repeat across sessions sharing one
// spec/prefs/database: attach a shared adapt::DecisionCache through
// Options::decision_cache and select/select_with_incumbent are memoized
// across every scheduler on the cache.  Hits are byte-identical to what an
// uncached evaluation would return.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adapt/decision_cache.hpp"
#include "adapt/preferences.hpp"
#include "perfdb/database.hpp"
#include "tunable/config.hpp"

namespace avf::adapt {

class ResourceScheduler {
 public:
  struct Options {
    perfdb::Lookup lookup = perfdb::Lookup::kInterpolate;
    /// Relative advantage a challenger must show over the incumbent before
    /// the scheduler recommends switching (paper §7.5: small resource
    /// variations should not cause performance-degrading re-adaptations).
    double switch_hysteresis = 0.0;
    /// Shared decision memo (see adapt/decision_cache.hpp); null = off.
    std::shared_ptr<DecisionCache> decision_cache;
  };

  ResourceScheduler(const perfdb::PerfDatabase& db,
                    PreferenceList preferences);
  ResourceScheduler(const perfdb::PerfDatabase& db, PreferenceList preferences,
                    Options options);

  /// Historical spelling: the Decision type now lives at namespace scope
  /// (adapt/decision_cache.hpp) so the cache can store it.
  using Decision = adapt::Decision;

  /// Select the best configuration for the measured `resources`.  Returns
  /// nullopt when the database is empty or no configuration has data.
  /// When no preference's constraints are satisfiable, the last preference's
  /// objective is optimized over all configurations (best effort).
  std::optional<Decision> select(const perfdb::ResourcePoint& resources) const;

  /// Like select(), but biased toward `incumbent`: a different config is
  /// returned only if its predicted objective beats the incumbent's by the
  /// hysteresis margin (or the incumbent violates the active constraints).
  std::optional<Decision> select_with_incumbent(
      const perfdb::ResourcePoint& resources,
      const tunable::ConfigPoint& incumbent) const;

  const PreferenceList& preferences() const { return preferences_; }
  const perfdb::PerfDatabase& database() const { return db_; }
  const Options& options() const { return options_; }
  /// Fingerprint of (preference list, options) — the part of the decision
  /// function that is not the database or the query point.  Schedulers with
  /// equal fingerprints compute identical decisions from identical inputs;
  /// the DecisionCache keys on it.
  std::uint64_t selector_fingerprint() const { return selector_fingerprint_; }

 private:
  struct Candidate {
    const tunable::ConfigPoint* config;  // owned by the database
    tunable::QosVector predicted;
  };

  /// Predict every stored configuration at `resources` into the reusable
  /// scratch vector and return it.
  const std::vector<Candidate>& evaluate(
      const perfdb::ResourcePoint& resources) const;
  std::optional<Decision> decide(const std::vector<Candidate>& all) const;
  std::optional<Decision> select_uncached(
      const perfdb::ResourcePoint& resources,
      const tunable::ConfigPoint* incumbent) const;
  std::optional<Decision> select_cached(
      const perfdb::ResourcePoint& resources,
      const tunable::ConfigPoint* incumbent) const;
  const Candidate* find_incumbent(const tunable::ConfigPoint& incumbent,
                                  const std::vector<Candidate>& all) const;

  const perfdb::PerfDatabase& db_;
  PreferenceList preferences_;
  Options options_;
  std::uint64_t selector_fingerprint_ = 0;
  // Reused across decisions so the hot adaptation loop does not reallocate
  // (single-threaded, like the rest of the simulation).
  mutable std::vector<Candidate> scratch_;
  // Candidate slot by config key, so select_with_incumbent finds the
  // incumbent's prediction O(1) instead of rescanning the candidate vector.
  // Valid while the database's mutation epoch and the candidate count are
  // unchanged (the candidate set is the stored config set, in iteration
  // order, independent of the query point).
  mutable std::unordered_map<std::string, std::size_t> slot_of_;
  mutable std::uint64_t slots_epoch_ = 0;
  mutable bool slots_valid_ = false;
};

}  // namespace avf::adapt
