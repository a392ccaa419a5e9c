// Profile explorer: inspect the automatically generated performance
// database of the visualization application — the artifact at the center
// of the paper's approach.
//
// Shows: grid contents, interpolated predictions, maximal-subset pruning
// (dominated/merged configurations), sensitivity analysis (where more
// samples would help), and CSV round-tripping.
//
// Build & run:  ./build/examples/profile_explorer
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfdb/prune.hpp"
#include "perfdb/sensitivity.hpp"
#include "util/table.hpp"
#include "viz/world.hpp"

using namespace avf;

int main() {
  viz::WorldSetup setup;
  setup.image_size = 512;
  viz::ServerCaches caches;  // shared by every world of the sweep
  caches.attach(setup);
  std::cout << "building a profile of the visualization app "
               "(4x4 resource grid, 18 configurations)...\n";
  perfdb::PerfDatabase db = viz::build_viz_database(
      setup, {0.1, 0.4, 0.7, 1.0}, {25e3, 50e3, 250e3, 500e3});
  std::cout << db.size() << " samples recorded\n\n";

  std::cout << "== interpolated predictions at an off-grid point "
               "(cpu 55%, 120 KBps) ==\n";
  util::TextTable predictions(
      {"config", "transmit (s)", "response (s)", "resolution"});
  for (const tunable::ConfigPoint& config : db.configs()) {
    auto q = db.predict(config, {0.55, 120e3});
    predictions.add_row({config.key(),
                         util::TextTable::num(q->get("transmit_time"), 3),
                         util::TextTable::num(q->get("response_time"), 3),
                         util::TextTable::num(q->get("resolution"), 0)});
  }
  predictions.print(std::cout);

  std::cout << "\n== maximal-subset pruning (paper §5 footnote) ==\n";
  perfdb::PruneResult prune = perfdb::analyze_prune(db, 0.02);
  std::cout << "kept " << prune.kept.size() << " of "
            << db.configs().size() << " configurations\n";
  for (const auto& config : prune.dominated) {
    std::cout << "  dominated: " << config.key() << "\n";
  }
  for (const auto& [from, to] : prune.merged_into) {
    std::cout << "  merged:    " << from << " == " << to << "\n";
  }

  std::cout << "\n== sensitivity analysis: where to sample next ==\n";
  auto suggestions = perfdb::sensitivity_analysis(db, 0.6);
  std::size_t shown = 0;
  for (const auto& s : suggestions) {
    std::cout << "  " << s.config.key() << " @ cpu="
              << util::TextTable::num(s.point[0], 2) << " bw="
              << util::TextTable::num(s.point[1] / 1e3, 1) << " KBps ("
              << s.metric << " changes "
              << util::TextTable::num(100 * s.relative_change, 0)
              << "% along " << s.axis << ")\n";
    if (++shown == 8) break;
  }
  std::cout << "  (" << suggestions.size() << " suggestions total)\n";

  std::cout << "\n== CSV round-trip ==\n";
  std::stringstream buffer;
  db.save(buffer);
  std::cout << "serialized " << buffer.str().size() << " bytes; ";
  perfdb::PerfDatabase loaded = perfdb::PerfDatabase::load(buffer);
  std::cout << "reloaded " << loaded.size() << " samples ("
            << (loaded.size() == db.size() ? "match" : "MISMATCH") << ")\n";
  return 0;
}
