#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace avf::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

namespace {

// One step of a Neumaier compensated left-fold.  Both the incremental
// extension in add() and the exact-scan fallback run exactly this step in
// oldest→newest order, which is what makes the memo bit-identical to a
// fresh rescan.
void neumaier_add(double& sum, double& comp, double x) {
  double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;
  } else {
    comp += (x - t) + sum;
  }
  sum = t;
}

}  // namespace

void TimeWindow::add(double time, double value) {
  samples_.emplace_back(time, value);
  if (fold_valid_) {
    // The fold covers a suffix ending at the previous newest sample (add()
    // never leaves it short), so one compensated step keeps it current.
    neumaier_add(fold_sum_, fold_comp_, value);
    ++fold_extends_;
  }
  double cutoff = time - horizon_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    samples_.pop_front();
    ++base_seq_;
  }
  // Eviction reached into the fold's coverage: compensated sums cannot be
  // bit-identically "subtracted from", so drop the memo and let the next
  // query re-anchor with an exact scan.
  if (fold_valid_ && fold_start_seq_ < base_seq_) fold_valid_ = false;
}

std::optional<double> TimeWindow::mean_since(double t) const {
  auto stats = stats_since(t);
  if (!stats) return std::nullopt;
  return stats->mean;
}

std::optional<SuffixStats> TimeWindow::stats_since(double t) const {
  const std::size_t size = samples_.size();
  if (fold_valid_) {
    // The fold covers [fold_start_seq_, end).  It answers this query iff its
    // first covered sample is exactly the oldest one with time >= t — an O(1)
    // check against the sample at the anchor and its predecessor.
    std::size_t idx = static_cast<std::size_t>(fold_start_seq_ - base_seq_);
    bool starts_in_suffix = idx == size || samples_[idx].first >= t;
    bool is_maximal = idx == 0 || samples_[idx - 1].first < t;
    if (starts_in_suffix && is_maximal) {
      ++fold_hits_;
      std::size_t n = size - idx;
      if (n == 0) return std::nullopt;
      return SuffixStats{(fold_sum_ + fold_comp_) / static_cast<double>(n),
                         samples_[idx].first, n};
    }
  }
  // Re-anchor: samples are time-ordered, so the qualifying suffix starts at
  // the first entry with time >= t.  The fresh scan below performs the same
  // left-fold the incremental path would have accumulated.
  auto first = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const std::pair<double, double>& s, double cut) {
        return s.first < cut;
      });
  ++fold_rescans_;
  fold_valid_ = true;
  fold_start_seq_ =
      base_seq_ + static_cast<std::uint64_t>(first - samples_.begin());
  fold_sum_ = 0.0;
  fold_comp_ = 0.0;
  std::size_t n = 0;
  for (auto it = first; it != samples_.end(); ++it) {
    neumaier_add(fold_sum_, fold_comp_, it->second);
    ++n;
  }
  if (n == 0) return std::nullopt;
  return SuffixStats{(fold_sum_ + fold_comp_) / static_cast<double>(n),
                     first->first, n};
}

}  // namespace avf::util
