#include "util/stats.hpp"

#include <algorithm>

namespace avf::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void TimeWindow::add(double time, double value) {
  samples_.emplace_back(time, value);
  double cutoff = time - horizon_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    samples_.pop_front();
  }
}

std::optional<SuffixStats> TimeWindow::stats_since(double t) const {
  // Samples are time-ordered, so the qualifying suffix starts at the first
  // entry with time >= t.
  auto first = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const std::pair<double, double>& s, double cut) {
        return s.first < cut;
      });
  if (first == samples_.end()) return std::nullopt;
  CompensatedSum sum;
  for (auto it = first; it != samples_.end(); ++it) sum.add(it->second);
  const auto n = static_cast<std::size_t>(samples_.end() - first);
  return SuffixStats{sum.value() / static_cast<double>(n), first->first, n};
}

}  // namespace avf::util
