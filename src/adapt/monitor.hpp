// The application-specific monitoring agent (paper §6.1).
//
// Instrumented application code reports observations of the resources it
// actually obtained (e.g. "that 2 MB transfer took 4.1 s -> ~500 KB/s
// available", "those 90 Mops took 0.25 s -> ~80% of a 450 Mops CPU").  The
// agent keeps a sliding history window per resource axis, derives current
// availability estimates, and flags when availability has drifted out of
// range of the baseline recorded at the last scheduling decision — with a
// consecutive-check hysteresis so a single noisy sample does not trigger
// reconfiguration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace avf::adapt {

class MonitoringAgent {
 public:
  struct Options {
    double window = 2.0;              ///< history window, seconds
    double trigger_threshold = 0.25;  ///< relative deviation from baseline
    int consecutive_required = 2;     ///< out-of-range checks before trigger
  };

  MonitoringAgent(sim::Simulator& sim, std::vector<std::string> axes);
  MonitoringAgent(sim::Simulator& sim, std::vector<std::string> axes,
                  Options options);

  const std::vector<std::string>& axes() const { return axes_; }

  /// Stable numeric id of `axis` (its index in axes()); throws
  /// std::out_of_range for unknown names.  Reporters resolve the id once
  /// and pass it to observe() and estimate().
  std::size_t axis_id(const std::string& axis) const;

  /// Report an observed availability sample for axis `axis_id` (units =
  /// axis units, e.g. CPU share fraction or bytes/s), timestamped with
  /// simulated now().
  void observe(std::size_t axis_id, double value);

  /// Windowed estimate; nullopt when the axis has no samples in-window.
  std::optional<double> estimate(std::size_t axis_id) const;

  /// Estimates for all axes into a caller-owned vector (periodic callers,
  /// the adaptation controller, reuse the allocation); axes without samples
  /// fall back to the baseline value.
  void estimates_into(std::vector<double>& out) const;

  /// Record the resource point the scheduler last planned for.
  void set_baseline(std::vector<double> baseline);
  const std::vector<double>& baseline() const { return baseline_; }

  /// Out-of-range check (call periodically).  Returns true once the
  /// relative deviation on any axis has exceeded the threshold for the
  /// configured number of consecutive calls; the internal counter resets
  /// after firing and whenever availability returns to range.
  bool check_triggered();

  /// True when re-running check_triggered() now would *provably* repeat the
  /// previous check's in-range outcome with no state change: nothing was
  /// observed and no baseline was set since the last check (revision
  /// unchanged), that check found every axis in range, and no axis's
  /// qualifying sample suffix has aged past the window cutoff (the oldest
  /// qualifying sample recorded at the last check is still in-window, so
  /// the windowed means are bit-identical).  The adaptation controller uses
  /// this to skip whole ticks on quiet sessions; a false return proves
  /// nothing either way.
  bool check_would_noop() const;

  std::size_t triggers() const { return triggers_; }

 private:
  sim::Simulator& sim_;
  std::vector<std::string> axes_;
  Options options_;
  std::vector<util::TimeWindow> windows_;
  std::vector<double> baseline_;
  int consecutive_out_ = 0;
  std::size_t triggers_ = 0;
  // Bumped on every observe() and set_baseline(), so check_would_noop()
  // can tell "no new information since the last check".
  std::uint64_t revision_ = 0;

  // Snapshot of the last check_triggered() call, for check_would_noop():
  // which revision it saw, whether it found everything in range, and per
  // axis whether an estimate existed and where its qualifying suffix began.
  // The per-axis entries are complete only for in-range checks (the check
  // short-circuits on the first out-of-range axis), which is exactly when
  // check_would_noop() consults them.
  struct AxisCheckState {
    bool had_estimate = false;
    double first_time = 0.0;
  };
  bool last_check_valid_ = false;
  bool last_check_out_of_range_ = false;
  std::uint64_t last_check_revision_ = 0;
  std::vector<AxisCheckState> check_state_;
};

}  // namespace avf::adapt
