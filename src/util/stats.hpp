// Streaming statistics and a sliding time window, used by the viz client
// (response times) and the monitoring agent (history-window estimates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

namespace avf::util {

/// Welford-style streaming mean with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Aggregate over the suffix of a TimeWindow that qualifies for a
/// `stats_since` query: the mean, the timestamp of the oldest qualifying
/// sample, and the number of qualifying samples.
struct SuffixStats {
  double mean;
  double first_time;
  std::size_t count;
};

/// Sliding window over (time, value) samples; evicts samples older than the
/// configured horizon relative to the most recent sample.  This is the data
/// structure behind the monitoring agent's "history window" (paper §6.1).
///
/// `mean_since`/`stats_since` are backed by a memoized Neumaier left-fold
/// over the qualifying suffix.  Appending a sample extends the fold with one
/// compensated-add step — exactly the step a fresh oldest→newest scan would
/// perform last — so the memo stays bit-identical to an exact rescan at all
/// times.  When a query's cutoff no longer matches the memo anchor (the
/// window aged, or a stale burst left the deque holding samples older than
/// the caller's cutoff) the query falls back to the exact scan and
/// re-anchors the memo.  Repeated queries against an unchanged suffix are
/// O(1); the fallback is never worse than the pre-memo linear scan.
class TimeWindow {
 public:
  explicit TimeWindow(double horizon) : horizon_(horizon) {}

  void add(double time, double value);
  void clear() {
    samples_.clear();
    base_seq_ = 0;
    fold_valid_ = false;
  }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double horizon() const { return horizon_; }

  /// Mean of the samples with time >= `t`; nullopt when none qualify.
  /// Eviction on add() is relative to the newest *sample*, so the deque can
  /// retain entries older than the caller's notion of "now" — consumers that
  /// care about wall-clock freshness (the monitoring agent) must filter here
  /// rather than averaging the whole deque.
  std::optional<double> mean_since(double t) const;
  /// Mean, oldest qualifying timestamp, and count for samples with time
  /// >= `t`; nullopt when none qualify.  O(1) when the memoized fold already
  /// covers exactly this suffix.
  std::optional<SuffixStats> stats_since(double t) const;

  const std::deque<std::pair<double, double>>& samples() const {
    return samples_;
  }

  /// Observability for the suffix-fold memo: O(1) extensions performed in
  /// add(), exact-scan re-anchors, and queries answered from the memo.
  struct FoldCounters {
    std::uint64_t extends = 0;
    std::uint64_t rescans = 0;
    std::uint64_t hits = 0;
  };
  FoldCounters fold_counters() const {
    return {fold_extends_, fold_rescans_, fold_hits_};
  }

 private:
  double horizon_;
  std::deque<std::pair<double, double>> samples_;
  // Sequence number of samples_.front(); advanced by every front eviction so
  // the fold anchor survives deque index shifts.
  std::uint64_t base_seq_ = 0;
  // Memoized Neumaier left-fold over the suffix [fold_start_seq_, end); the
  // fold, when valid, always reaches the newest sample (add() extends it or
  // invalidates it, never leaves it short).  Mutable: queries are logically
  // const but re-anchor the memo.
  mutable bool fold_valid_ = false;
  mutable std::uint64_t fold_start_seq_ = 0;
  mutable double fold_sum_ = 0.0;
  mutable double fold_comp_ = 0.0;
  mutable std::uint64_t fold_extends_ = 0;
  mutable std::uint64_t fold_rescans_ = 0;
  mutable std::uint64_t fold_hits_ = 0;
};

}  // namespace avf::util
