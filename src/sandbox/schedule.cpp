#include "sandbox/schedule.hpp"

namespace avf::sandbox {

namespace {

void apply_change(Sandbox& box, const CapChange& change) {
  if (change.cpu_share) box.set_cpu_share(*change.cpu_share);
  if (change.net_bps) box.set_net_bandwidth(*change.net_bps);
}

}  // namespace

std::vector<sim::EventHandle> apply_schedule(
    sim::Simulator& sim, Sandbox& box,
    const std::vector<CapChange>& changes) {
  std::vector<sim::EventHandle> handles;
  handles.reserve(changes.size());
  for (const CapChange& change : changes) {
    if (change.at <= sim.now()) {
      apply_change(box, change);
    } else {
      handles.push_back(sim.schedule_at(
          change.at, [&box, change] { apply_change(box, change); }));
    }
  }
  return handles;
}

}  // namespace avf::sandbox
