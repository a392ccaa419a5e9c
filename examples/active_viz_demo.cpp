// Active Visualization demo: the paper's application end to end.
//
// Profiles the client/server image viewer in the virtual testbed, then
// plays a session in which both the network and the CPU degrade; the
// framework reconfigures the compression method, fovea size, and (if
// needed) image resolution on the fly.
//
// Build & run:  ./build/examples/active_viz_demo
#include <iostream>

#include "examples/specs.hpp"
#include "util/table.hpp"
#include "viz/world.hpp"

using namespace avf;

int main() {
  // A compact world (512x512 images) so the demo profiles in seconds.
  viz::WorldSetup setup;
  setup.image_size = 512;
  setup.image_count = 12;
  setup.link_bandwidth_bps = 500e3;
  // Server caches shared by every world the profile and the session build.
  viz::ServerCaches caches;
  caches.attach(setup);

  std::cout << "== step 1: profile every configuration in the testbed ==\n";
  perfdb::PerfDatabase db = viz::build_viz_database(
      setup, {0.1, 0.4, 0.7, 1.0}, {25e3, 50e3, 250e3, 500e3});
  std::cout << "   " << db.size() << " samples across "
            << db.configs().size() << " configurations\n";

  std::cout << "\n== step 2: user preference ==\n"
            << "   minimize transmit time at full resolution;\n"
            << "   fall back to lower resolution if transmit > 4 s\n";
  adapt::PreferenceList preferences = examples::viz_preferences();

  std::cout << "\n== step 3: run 12 images while resources degrade ==\n"
            << "   t=6s  bandwidth 500 -> 50 KBps\n"
            << "   t=25s client CPU 100% -> 40%\n\n";
  viz::ResourceSchedule schedule;
  schedule.link_bandwidth = {{6.0, 50e3}};
  schedule.client_cpu = {{.at = 25.0, .cpu_share = 0.4}};

  viz::SessionResult result =
      viz::run_adaptive_session(setup, db, preferences, schedule);

  std::cout << "initial configuration: " << result.initial_config.key()
            << "\n";
  for (const auto& event : result.adaptations) {
    std::cout << "t=" << util::TextTable::num(event.time, 2) << "s: "
              << event.from.key() << " -> " << event.to.key() << "\n";
  }
  std::cout << '\n';

  util::TextTable table({"image", "start (s)", "transmit (s)",
                         "response (s)", "level", "config at end"});
  for (const auto& img : result.images) {
    table.add_row({util::TextTable::num(img.image_id + 1, 0),
                   util::TextTable::num(img.start_time, 2),
                   util::TextTable::num(img.transmit_time, 2),
                   util::TextTable::num(img.avg_response, 3),
                   util::TextTable::num(img.resolution, 0),
                   img.final_config});
  }
  table.print(std::cout);
  std::cout << "\ntotal session time: "
            << util::TextTable::num(result.total_time, 1) << " s, "
            << result.adaptations.size() << " adaptations\n";
  return 0;
}
