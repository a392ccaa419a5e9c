// avf_viz_schedule — query a performance database the way the resource
// scheduler does (§6.2): given measured resources and a user preference,
// print the configuration the framework would choose, with its predicted
// quality metrics.
//
// Usage:
//   avf_viz_schedule --db FILE --cpu SHARE --bw BPS
//                    [--minimize METRIC | --maximize METRIC]
//                    [--range METRIC:MIN:MAX]... [--nearest]
// Example:
//   avf_viz_schedule --db db.csv --cpu 0.4 --bw 50e3
//                    --maximize resolution --range transmit_time:0:10
// --cpu and --bw must be finite and >= 0; range bounds may be infinite.  A
// malformed number prints the usage and exits 2, as does a query the
// scheduler rejects.
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "adapt/scheduler.hpp"
#include "cli_args.hpp"
#include "perfdb/database.hpp"

using namespace avf;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: avf_viz_schedule --db FILE --cpu SHARE --bw BPS "
               "[--minimize M | --maximize M] [--range M:MIN:MAX]... "
               "[--nearest]\n";
  std::exit(2);
}

/// `parsed`'s value, or the usage and exit 2.
double or_usage(std::optional<double> parsed) {
  if (!parsed) usage();
  return *parsed;
}

adapt::MetricRange parse_range(const std::string& spec) {
  std::size_t c1 = spec.find(':');
  std::size_t c2 = spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) usage();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  adapt::MetricRange range;
  range.metric = spec.substr(0, c1);
  const std::string min = spec.substr(c1 + 1, c2 - c1 - 1);
  range.min = or_usage(cli::parse_double(min, -kInf, kInf));
  range.max = or_usage(cli::parse_double(spec.substr(c2 + 1), -kInf, kInf));
  return range;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  double cpu = -1.0, bw = -1.0;
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  perfdb::Lookup lookup = perfdb::Lookup::kInterpolate;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (arg == "--db") {
      db_path = next();
    } else if (arg == "--cpu") {
      cpu = or_usage(cli::parse_double(next(), 0.0));
    } else if (arg == "--bw") {
      bw = or_usage(cli::parse_double(next(), 0.0));
    } else if (arg == "--minimize") {
      pref.objective_metric = next();
      pref.maximize = false;
    } else if (arg == "--maximize") {
      pref.objective_metric = next();
      pref.maximize = true;
    } else if (arg == "--range") {
      pref.constraints.push_back(parse_range(next()));
    } else if (arg == "--nearest") {
      lookup = perfdb::Lookup::kNearest;
    } else {
      usage();
    }
  }
  if (db_path.empty() || cpu < 0.0 || bw < 0.0) usage();

  std::ifstream in(db_path);
  if (!in) {
    std::cerr << "cannot read " << db_path << "\n";
    return 1;
  }
  std::optional<perfdb::PerfDatabase> db;
  try {
    db.emplace(perfdb::PerfDatabase::load(in));
  } catch (const std::exception& e) {
    std::cerr << "error loading " << db_path << ": " << e.what() << "\n";
    return 1;
  }

  adapt::ResourceScheduler::Options options;
  options.lookup = lookup;
  std::optional<adapt::Decision> decision;
  try {
    adapt::ResourceScheduler scheduler(*db, {pref}, options);
    decision = scheduler.select({cpu, bw});
  } catch (const std::exception& e) {
    std::cerr << "avf_viz_schedule: " << e.what() << "\n";
    return 2;
  }
  if (!decision) {
    std::cerr << "no usable configurations in the database\n";
    return 1;
  }
  std::cout << "configuration: " << decision->config.key() << "\n";
  for (const auto& [metric, value] : decision->predicted.values()) {
    std::cout << "  predicted " << metric << " = " << value << "\n";
  }
  if (decision->fell_through) {
    std::cout << "note: the preference constraints were not satisfiable; "
                 "this is the best-effort choice\n";
  }
  return 0;
}
