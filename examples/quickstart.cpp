// Quickstart: make a tiny application tunable and let the framework
// configure and adapt it.
//
// The application is a "renderer" with one knob: quality in {1, 2, 3}.
// Higher quality costs more CPU per frame.  We
//   1. declare the tunability specification (knobs, metrics, resources),
//   2. build its performance database by *running it in the testbed* at
//      several CPU shares (profile-based modeling),
//   3. ask the scheduler to configure it for the current resources, and
//   4. let the monitoring agent trigger re-configuration when the CPU
//      share changes at run time.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "adapt/stack.hpp"
#include "examples/specs.hpp"
#include "perfdb/driver.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "util/table.hpp"

using namespace avf;

namespace {

constexpr double kSpeed = 450e6;          // ops/s of our simulated host
constexpr double kOpsPerQuality = 90e6;   // CPU cost of one frame per level
constexpr int kFrames = 20;

// Step 1 — the tunability specification (what the paper's annotations
// declare) — is shared with the avf_lint tool: examples::renderer_spec().

// ---------------------------------------------------------------------
// 2. One profiling run: execute a few frames in a sandboxed testbed with
//    the requested CPU share and measure the metrics.
// ---------------------------------------------------------------------
tunable::QosVector profile_run(const tunable::ConfigPoint& config,
                               const perfdb::ResourcePoint& at) {
  sim::Simulator sim;
  sim::Host host(sim, "testbed", kSpeed);
  sandbox::Sandbox::Options opts;
  opts.cpu_share = at[0];
  sandbox::Sandbox box(host, "renderer", opts);

  double frame_time = 0.0;
  auto body = [&]() -> sim::Task<> {
    double start = sim.now();
    for (int f = 0; f < 5; ++f) {
      co_await box.compute(kOpsPerQuality * config.get("quality"));
    }
    frame_time = (sim.now() - start) / 5.0;
  };
  sim.spawn(body());
  sim.run();

  tunable::QosVector q;
  q.set("frame_time", frame_time);
  q.set("quality", config.get("quality"));
  return q;
}

}  // namespace

int main() {
  tunable::AppSpec spec = examples::renderer_spec();

  std::cout << "== profiling the renderer in the virtual testbed ==\n";
  perfdb::ProfilingDriver driver(profile_run);
  perfdb::PerfDatabase db =
      driver.profile(spec, {{0.1, 0.25, 0.5, 0.75, 1.0}});
  std::cout << "performance database: " << db.size() << " samples for "
            << db.configs().size() << " configurations\n\n";

  // User preferences, in decreasing order (paper §6): first, the best
  // quality whose frame time stays under 500 ms; if no quality can meet
  // that, just keep frames as fast as possible.
  adapt::PreferenceList preferences = examples::renderer_preferences();

  // ---------------------------------------------------------------------
  // 3 + 4. Run the application; CPU share drops mid-run, the monitoring
  // agent notices, the scheduler picks a lighter configuration, and the
  // steering agent installs it at the next frame boundary.
  // ---------------------------------------------------------------------
  sim::Simulator sim;
  sim::Host host(sim, "laptop", kSpeed);
  sandbox::Sandbox::Options opts;
  opts.cpu_share = 0.9;
  sandbox::Sandbox box(host, "renderer", opts);

  // The run-time stack: scheduler, monitoring agent, steering agent and
  // the controller's periodic check, configured for a 90% CPU share.
  adapt::AdaptationStack stack(sim, spec, db, preferences, {0.9}, {});
  adapt::MonitoringAgent& monitor = stack.monitor;
  const std::size_t cpu_axis = monitor.axis_id("cpu_share");
  adapt::SteeringAgent& steering = stack.steering;
  const tunable::ConfigPoint& initial = stack.initial_config;

  util::TextTable table({"frame", "t (s)", "quality", "frame time (s)"});
  auto app = [&]() -> sim::Task<> {
    for (int frame = 0; frame < kFrames; ++frame) {
      double t0 = sim.now();
      int quality = steering.active().get("quality");
      co_await box.compute(kOpsPerQuality * quality);
      double dt = sim.now() - t0;
      // The app's own instrumentation feeds the monitoring agent.
      monitor.observe(cpu_axis,
                      kOpsPerQuality * quality / (kSpeed * dt));
      table.add_row({util::TextTable::num(frame, 0),
                     util::TextTable::num(sim.now(), 2),
                     util::TextTable::num(quality, 0),
                     util::TextTable::num(dt, 3)});
      steering.apply_pending();  // frame boundary = reconfiguration point
    }
    stack.controller.stop();
  };
  sim.spawn(app());
  // Competing load arrives at t=2: our share drops to 30%.
  sim.schedule(2.0, [&] { box.set_cpu_share(0.3); });
  sim.run();

  std::cout << "initial configuration: " << initial.key() << "\n";
  for (const auto& event : stack.controller.adaptations()) {
    std::cout << "t=" << util::TextTable::num(event.time, 2) << "s: adapted "
              << event.from.key() << " -> " << event.to.key() << "\n";
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nThe renderer started at quality "
            << initial.get("quality")
            << " and degraded automatically when the CPU share dropped —\n"
            << "no scheduling logic in the application itself.\n";
  return 0;
}
