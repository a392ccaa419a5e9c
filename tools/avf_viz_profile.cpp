// avf_viz_profile — the paper's "driver program" (§5) as a command-line
// tool: executes every configuration of the visualization application in
// the virtual testbed over a resource grid and writes the performance
// database as CSV.
//
// Usage:
//   avf_viz_profile [--size N] [--images SEED] [--cpu a,b,c] [--bw a,b,c]
//                   [--refine R] [--budget B] [--seed S] [--threads T]
//                   [--out FILE]
// Defaults: 512x512 image, cpu 0.1,0.4,0.7,1.0, bw 25e3,50e3,250e3,500e3,
// no refinement, 1 thread (0 = hardware concurrency; any thread count
// produces a byte-identical database), stdout.  CPU shares must lie in
// (0, 1] and bandwidths be positive; a malformed or out-of-range number
// prints the usage and exits 2, as does a setup the testbed rejects.
//
// --budget B caps the sandbox runs at B cells (adaptive profiling): the
// driver measures a seeded space-filling sample, fits one regression tree
// per metric, spends the rest of the budget on the highest-variance leaves,
// and emits tree predictions (flagged in an `origin` column) for the
// unmeasured cells.  --seed S picks the space-filling sample (default 1).
// --budget excludes --refine; a budget covering the whole grid degenerates
// to the exhaustive sweep byte-for-byte.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "perfdb/driver.hpp"
#include "viz/world.hpp"

using namespace avf;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: avf_viz_profile [--size N] [--cpu a,b,..] "
               "[--bw a,b,..] [--refine R] [--budget B] [--seed S] "
               "[--threads T] [--out FILE]\n";
  std::exit(2);
}

/// `parsed`'s value, or the usage and exit 2.
template <typename T>
T or_usage(std::optional<T> parsed) {
  if (!parsed) usage();
  return *std::move(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  viz::WorldSetup setup;
  setup.image_size = 512;
  viz::ServerCaches caches;  // shared by every world of the sweep
  caches.attach(setup);
  std::vector<double> cpu_grid{0.1, 0.4, 0.7, 1.0};
  std::vector<double> bw_grid{25e3, 50e3, 250e3, 500e3};
  int refine = 0;
  std::size_t budget = 0;  // 0 = exhaustive sweep
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (arg == "--size") {
      setup.image_size =
          static_cast<int>(or_usage(cli::parse_int(next(), 1, 8192)));
    } else if (arg == "--cpu") {
      cpu_grid = or_usage(cli::parse_list(next(), kPositive, 1.0));
    } else if (arg == "--bw") {
      bw_grid = or_usage(cli::parse_list(next(), kPositive, kMaxDouble));
    } else if (arg == "--refine") {
      refine = static_cast<int>(or_usage(
          cli::parse_int(next(), 0, std::numeric_limits<int>::max())));
    } else if (arg == "--budget") {
      budget = static_cast<std::size_t>(or_usage(
          cli::parse_int(next(), 1, std::numeric_limits<long long>::max())));
    } else if (arg == "--seed") {
      seed = or_usage(cli::parse_seed(next(), 10));
    } else if (arg == "--threads") {
      threads =
          static_cast<std::size_t>(or_usage(cli::parse_int(next(), 0, 4096)));
    } else if (arg == "--out") {
      out_path = next();
    } else {
      usage();
    }
  }
  if (budget > 0 && refine > 0) usage();  // the tree owns the budget

  std::cerr << "profiling " << viz::viz_app_spec().space().enumerate().size()
            << " configurations over " << cpu_grid.size() << "x"
            << bw_grid.size() << " resource grid (" << setup.image_size
            << "x" << setup.image_size << " image, " << refine
            << " refinement rounds, "
            << (threads == 0 ? std::string("hw") : std::to_string(threads))
            << " threads)...\n";
  std::optional<perfdb::PerfDatabase> built;
  try {
    built.emplace(budget > 0 ? viz::build_viz_database_adaptive(
                                   setup, cpu_grid, bw_grid, budget, seed,
                                   threads)
                             : viz::build_viz_database(setup, cpu_grid,
                                                       bw_grid, refine,
                                                       threads));
  } catch (const std::exception& e) {
    std::cerr << "avf_viz_profile: " << e.what() << "\n";
    return 2;
  }
  const perfdb::PerfDatabase& db = *built;
  std::cerr << db.size() << " samples collected";
  if (db.predicted_count() > 0) {
    std::cerr << " (" << db.size() - db.predicted_count() << " measured, "
              << db.predicted_count() << " tree-predicted)";
  }
  std::cerr << "\n";

  if (out_path.empty()) {
    db.save(std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    db.save(out);
    std::cerr << "written to " << out_path << "\n";
  }
  return 0;
}
