#include "adapt/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::adapt {

MonitoringAgent::MonitoringAgent(sim::Simulator& sim,
                                 std::vector<std::string> axes)
    : MonitoringAgent(sim, std::move(axes), Options{}) {}

MonitoringAgent::MonitoringAgent(sim::Simulator& sim,
                                 std::vector<std::string> axes,
                                 Options options)
    : sim_(sim), axes_(std::move(axes)), options_(options) {
  if (axes_.empty()) {
    throw std::invalid_argument("monitoring agent needs at least one axis");
  }
  windows_.assign(axes_.size(), util::TimeWindow(options_.window));
  baseline_.assign(axes_.size(), 0.0);
  check_state_.assign(axes_.size(), AxisCheckState{});
}

std::size_t MonitoringAgent::axis_id(const std::string& axis) const {
  auto it = std::find(axes_.begin(), axes_.end(), axis);
  if (it == axes_.end()) {
    throw std::out_of_range(util::format("no such monitored axis: {}", axis));
  }
  return static_cast<std::size_t>(it - axes_.begin());
}

void MonitoringAgent::observe(std::size_t axis_id, double value) {
  windows_[axis_id].add(sim_.now(), value);
  ++revision_;
}

std::optional<double> MonitoringAgent::estimate(std::size_t axis_id) const {
  // Average only the samples inside [now - window, now].  The window deque
  // evicts relative to its newest *sample*, so after a reporting gap it can
  // still hold a burst of stale samples behind one fresh observation; those
  // must not skew the estimate.
  auto s = windows_[axis_id].stats_since(sim_.now() - options_.window);
  if (!s) return std::nullopt;
  return s->mean;
}

void MonitoringAgent::estimates_into(std::vector<double>& out) const {
  out.resize(axes_.size());
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    auto e = estimate(i);
    out[i] = e.value_or(baseline_[i]);
  }
}

void MonitoringAgent::set_baseline(std::vector<double> baseline) {
  if (baseline.size() != axes_.size()) {
    throw std::invalid_argument("baseline dimension mismatch");
  }
  baseline_ = std::move(baseline);
  consecutive_out_ = 0;
  ++revision_;
}

bool MonitoringAgent::check_triggered() {
  bool out_of_range = false;
  const double cutoff = sim_.now() - options_.window;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    auto s = windows_[i].stats_since(cutoff);
    check_state_[i].had_estimate = s.has_value();
    check_state_[i].first_time = s ? s->first_time : 0.0;
    if (!s) continue;
    double scale = std::max(std::abs(baseline_[i]), 1e-12);
    if (std::abs(s->mean - baseline_[i]) / scale > options_.trigger_threshold) {
      out_of_range = true;
      break;
    }
  }
  last_check_valid_ = true;
  last_check_out_of_range_ = out_of_range;
  last_check_revision_ = revision_;
  if (!out_of_range) {
    consecutive_out_ = 0;
    return false;
  }
  if (++consecutive_out_ >= options_.consecutive_required) {
    consecutive_out_ = 0;
    ++triggers_;
    return true;
  }
  return false;
}

bool MonitoringAgent::check_would_noop() const {
  // An in-range check is idempotent (it only re-zeroes an already-zero
  // consecutive counter), so it may be skipped when its inputs are provably
  // unchanged: no observation or baseline landed since (revision), and no
  // axis's qualifying suffix lost samples to the advancing window cutoff.
  // An axis with no in-window estimate then cannot have gained one (only
  // observe() adds samples), and an axis whose oldest qualifying sample is
  // still in-window averages the identical suffix — bit-identical mean,
  // identical verdict.
  if (!last_check_valid_ || last_check_out_of_range_) return false;
  if (revision_ != last_check_revision_) return false;
  const double cutoff = sim_.now() - options_.window;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (check_state_[i].had_estimate && check_state_[i].first_time < cutoff) {
      return false;
    }
  }
  return true;
}

}  // namespace avf::adapt
