// Scripted resource-availability schedules, used by the experiments to
// impose the paper's step changes (e.g. "bandwidth 500 KBps, dropping to
// 50 KBps at t = 25 s" in §7.2).  Each change is applied to a Sandbox at an
// absolute simulated time.
#pragma once

#include <optional>
#include <vector>

#include "sandbox/sandbox.hpp"
#include "sim/simulator.hpp"

namespace avf::sandbox {

struct CapChange {
  sim::SimTime at = 0.0;
  std::optional<double> cpu_share;
  std::optional<double> net_bps;
};

/// Schedule all changes against `box`.  Changes with `at` <= now apply
/// immediately.  Returns handles so a caller can cancel the remainder.
std::vector<sim::EventHandle> apply_schedule(
    sim::Simulator& sim, Sandbox& box, const std::vector<CapChange>& changes);

}  // namespace avf::sandbox
