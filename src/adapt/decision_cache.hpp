// Process-shareable memo for scheduler decisions (the fleet hot path).
//
// At fleet scale most sessions share one application spec, preference list,
// and performance database; under a common fault schedule their monitors
// report (near-)identical resource estimates, so their AdaptationControllers
// recompute byte-identical decisions.  The DecisionCache memoizes
// ResourceScheduler::select / select_with_incumbent results across all
// schedulers attached to it: the first session with a given input evaluates
// the candidate set, every other session reuses the Decision.
//
// Correctness model — a hit is *exact*, never approximate:
//   - Entries are bucketed by the quantized resource point (each
//     coordinate rounded to ~2^-20 relative precision) purely as a
//     hash key; on hit the entry verifies the raw IEEE-754 bit patterns of
//     the query point, so a decision computed at a different raw point in
//     the same bucket is a miss, not a stale answer.
//   - The key includes the database's process-unique uid and the attached
//     scheduler's selector fingerprint (preferences + options), so
//     schedulers with different specs or hysteresis never share entries.
//   - Entries record the database mutation epoch at store time; a lookup
//     under a newer epoch counts as an invalidation and misses.
//   - PerfDatabase::predict is exact and a pure read, so the memoized
//     function is pure in (db contents, selector, inputs).
//
// The table is bounded; when full it is wiped (a cheap, rare,
// self-correcting eviction policy: hot queries repopulate it at once).  All state is guarded by a
// util::Mutex so controller fleets on worker threads can share one cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfdb/grid_index.hpp"
#include "tunable/config.hpp"
#include "tunable/qos.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace avf::adapt {

/// One scheduler decision (paper §6.2): the chosen configuration, which
/// preference it satisfied, and the predicted quality that justified it.
/// Lives at namespace scope so the DecisionCache can store it; the
/// historical spelling `ResourceScheduler::Decision` aliases this type.
struct Decision {
  tunable::ConfigPoint config;
  std::size_t preference_index = 0;  // which preference was satisfiable
  tunable::QosVector predicted;
  bool fell_through = false;  // true if preference 0 unsatisfiable

  bool operator==(const Decision&) const = default;
};

class DecisionCache {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 8192;

  explicit DecisionCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  // Shared by reference (shared_ptr in scheduler options); never copied.
  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;      ///< bounded-size cache wipes
    std::size_t invalidations = 0;  ///< stale-database-epoch rejections
  };

  /// Everything that determines a decision, as the scheduler sees it.
  struct Query {
    std::uint64_t db_uid = 0;
    std::uint64_t db_epoch = 0;
    /// Fingerprint of the scheduler's preference list and options.
    std::uint64_t selector_fingerprint = 0;
    bool has_incumbent = false;
    std::string incumbent_key;  ///< empty when !has_incumbent
    const perfdb::ResourcePoint* resources = nullptr;
  };

  /// Memoized decision for `q`; nullptr on miss.  A non-null result may
  /// hold nullopt — "no usable records" is memoized too.  The pointee is
  /// owned by the cache and valid until the next store/clear; callers copy
  /// it out before any further cache call.
  const std::optional<Decision>* lookup(const Query& q) const
      AVF_EXCLUDES(mutex_);

  void store(const Query& q, const std::optional<Decision>& decision)
      AVF_EXCLUDES(mutex_);

  void clear() AVF_EXCLUDES(mutex_);

  std::size_t size() const AVF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return entries_.size();
  }
  std::size_t max_entries() const { return max_entries_; }
  /// Counter snapshot (by value: the live counters are lock-guarded).
  Stats stats() const AVF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return stats_;
  }
  void reset_stats() AVF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    stats_ = Stats{};
  }

 private:
  struct Entry {
    std::uint64_t db_uid = 0;
    std::uint64_t db_epoch = 0;
    std::uint64_t selector_fingerprint = 0;
    bool has_incumbent = false;
    std::string incumbent_key;
    /// Raw IEEE-754 bits of the resource point the decision was computed
    /// at — verified on hit so bucket aliasing can never serve a decision
    /// for a different raw point.
    std::vector<std::uint64_t> raw_bits;
    std::optional<Decision> decision;
  };

  static std::uint64_t hash_query(const Query& q);
  static bool keys_match(const Entry& e, const Query& q);

  std::size_t max_entries_;
  mutable util::Mutex mutex_;
  // Keyed by the mixed 64-bit hash; entries verify the full key (including
  // raw resource bits) on hit, so a collision behaves as a miss and is
  // overwritten on store.
  std::unordered_map<std::uint64_t, Entry> entries_ AVF_GUARDED_BY(mutex_);
  mutable Stats stats_ AVF_GUARDED_BY(mutex_);
};

}  // namespace avf::adapt
