// Streaming statistics, a compensated sum and a sliding time window, used by
// the viz client (response times), the fluid resources (served units, water
// level) and the monitoring agent (history-window estimates).
#pragma once

#include <cmath>
#include <cstddef>
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

/// Neumaier-compensated accumulator: add() folds the rounding error of each
/// += into a running compensation term, value() returns sum + comp.  Every
/// order-sensitive double sum on a trace-affecting path goes through it.
struct CompensatedSum {
  double sum = 0.0;
  double comp = 0.0;
  void add(double x) {
    double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
  }
  void sub(double x) { add(-x); }
  double value() const { return sum + comp; }
  void reset() {
    sum = 0.0;
    comp = 0.0;
  }
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
class TimeWindow {
 public:
  explicit TimeWindow(double horizon) : horizon_(horizon) {}

  void add(double time, double value);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Mean, oldest qualifying timestamp, and count for samples with time
  /// >= `t`; nullopt when none qualify.  The mean is one oldest-to-newest
  /// CompensatedSum fold over that suffix.  Eviction on add() is relative
  /// to the newest *sample*, so the deque can retain entries older than the
  /// caller's notion of "now" — consumers that care about wall-clock
  /// freshness (the monitoring agent) must filter here rather than
  /// averaging the whole deque.
  std::optional<SuffixStats> stats_since(double t) const;

  const std::deque<std::pair<double, double>>& samples() const {
    return samples_;
  }

 private:
  double horizon_;
  std::deque<std::pair<double, double>> samples_;
};

}  // namespace avf::util
