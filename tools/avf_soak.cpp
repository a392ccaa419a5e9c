// avf_soak — seeded soak driver for the fault-injection testkit.
//
// Runs `--count` randomized fault scenarios derived from `--seed` (default:
// the AVF_SOAK_SEED environment variable, else 1) and fails with the
// offending seed(s) printed if any adaptation invariant is violated.  Every
// reported per-scenario seed reproduces its scenario exactly:
//
//   avf_soak --scenario <seed> [--verbose]
//
// Seeds take strtoull's base-0 syntax (decimal, 0x hex, leading-0 octal);
// --count must be >= 1 and --duration positive.  A malformed or
// out-of-range number (AVF_SOAK_SEED included) prints the usage and exits
// 2.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "cli_args.hpp"
#include "testkit/scenario.hpp"
#include "util/fmt.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed N] [--count N] [--duration S] [--scenario N]"
               " [--verbose]\n"
               "  --seed N      base seed (default: $AVF_SOAK_SEED, else 1)\n"
               "  --count N     scenarios to run, >= 1 (default 50)\n"
               "  --duration S  simulated seconds per scenario (default 10)\n"
               "  --scenario N  replay one scenario by its per-scenario seed\n"
               "                (the value printed for a violation)\n"
               "  --verbose     print per-scenario seeds and fingerprints;\n"
               "                with --scenario, dump the full trace\n";
  return 2;
}

// Run the single scenario identified by a per-scenario seed, exactly as
// run_soak derives it.  This is the reproduction path for reported
// violations, so it prints the violations and (with --verbose) the trace.
int replay_scenario(std::uint64_t seed, avf::testkit::ScenarioOptions options,
                    bool verbose) {
  options.injector_seed = seed;
  options.preference_template = static_cast<int>((seed >> 8) % 2);
  const auto schedule =
      avf::testkit::random_schedule(seed, avf::testkit::limits_for(options));
  const auto result = avf::testkit::run_scenario(schedule, options);
  std::cout << avf::util::format(
      "scenario seed={} template={} faults={}\n", seed,
      options.preference_template, schedule.faults.size());
  for (const auto& f : schedule.faults) {
    std::cout << "  fault " << f.describe() << "\n";
  }
  if (verbose) std::cout << result.trace.dump();
  std::cout << avf::util::format(
      "tasks={} retries={} adaptations={} final={} fingerprint={:x}\n",
      result.tasks, result.retries, result.adaptations.size(),
      result.final_config.key(), result.trace.fingerprint());
  for (const auto& v : result.violations) {
    std::cout << avf::util::format("VIOLATION t={} [{}] {}\n", v.time,
                                   v.invariant, v.detail);
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t base_seed = 1;
  if (const char* env = std::getenv("AVF_SOAK_SEED")) {
    const auto seed = avf::cli::parse_seed(env, 0);
    if (!seed) {
      std::cerr << "AVF_SOAK_SEED: not a seed: '" << env << "'\n";
      return usage(argv[0]);
    }
    base_seed = *seed;
  }
  int count = 50;
  avf::testkit::ScenarioOptions options;
  bool verbose = false;
  bool replay = false;
  std::uint64_t scenario_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const auto seed = avf::cli::parse_seed(next(), 0);
      if (!seed) return usage(argv[0]);
      base_seed = *seed;
    } else if (arg == "--count") {
      const auto n =
          avf::cli::parse_int(next(), 1, std::numeric_limits<int>::max());
      if (!n) return usage(argv[0]);
      count = static_cast<int>(*n);
    } else if (arg == "--duration") {
      const auto seconds = avf::cli::parse_double(
          next(), std::numeric_limits<double>::denorm_min());
      if (!seconds) return usage(argv[0]);
      options.duration = *seconds;
    } else if (arg == "--scenario") {
      const auto seed = avf::cli::parse_seed(next(), 0);
      if (!seed) return usage(argv[0]);
      replay = true;
      scenario_seed = *seed;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (replay) {
    return replay_scenario(scenario_seed, options, verbose);
  }

  std::cout << avf::util::format("avf_soak: base seed {} x {} scenario(s)\n",
                                 base_seed, count);
  if (verbose) {
    // Re-run scenario by scenario so fingerprints can be printed alongside.
    avf::util::SplitMix64 seeder(base_seed);
    avf::testkit::SoakReport report;
    for (int i = 0; i < count; ++i) {
      const std::uint64_t seed = seeder.next();
      avf::testkit::ScenarioOptions opt = options;
      opt.injector_seed = seed;
      opt.preference_template = static_cast<int>((seed >> 8) % 2);
      const auto schedule =
          avf::testkit::random_schedule(seed, avf::testkit::limits_for(opt));
      const auto result = avf::testkit::run_scenario(schedule, opt);
      std::cout << avf::util::format(
          "  seed={} faults={} tasks={} retries={} adaptations={} "
          "fingerprint={:x}{}\n",
          seed, schedule.faults.size(), result.tasks, result.retries,
          result.adaptations.size(), result.trace.fingerprint(),
          result.ok() ? "" : "  VIOLATIONS");
      ++report.scenarios;
      report.tasks += result.tasks;
      report.adaptations += result.adaptations.size();
      report.accuracy_probes += result.accuracy_probes;
      for (const auto& v : result.violations) {
        report.violations.emplace_back(seed, v);
      }
    }
    std::cout << report.summary();
    if (!report.ok()) {
      std::cerr << avf::util::format(
          "FAILED: replay a seed with: {} --scenario <seed> --verbose\n", argv[0]);
      return 1;
    }
    return 0;
  }

  const auto report = avf::testkit::run_soak(base_seed, count, options);
  std::cout << report.summary();
  if (!report.ok()) {
    std::cerr << avf::util::format(
        "FAILED: replay a seed with: {} --scenario <seed> --verbose\n", argv[0]);
    return 1;
  }
  return 0;
}
