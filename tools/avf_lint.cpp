// avf_lint — static analysis of tunability specifications.
//
// Lints the example applications' specs (reference integrity, guard
// feasibility, transition connectivity, preference consistency) and,
// optionally, a CSV performance database against one app's spec (coverage:
// unprofiled valid configs, samples for invalid configs, axis/metric
// mismatches).  CI gates on `avf_lint` exiting 0 over all builtin apps.
//
// Usage:
//   avf_lint [--json] [--strict] [--max-configs N] [--db FILE] [app...]
//     app            renderer | pipeline | viz   (default: all)
//     --db FILE      also lint a CSV database (requires exactly one app)
//     --json         machine-readable output, one object per app
//     --strict       exit non-zero on warnings too
//     --max-configs  cap for enumeration-based rules (default 20000)
//
// Exit codes: 0 clean (warnings allowed unless --strict), 1 diagnostics
// at the failing severity, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "examples/specs.hpp"
#include "lint/lint.hpp"
#include "viz/world.hpp"

namespace {

using avf::lint::Options;
using avf::lint::Report;
using avf::tunable::AppSpec;
using avf::tunable::PreferenceList;

struct BuiltinApp {
  std::string name;
  AppSpec spec;
  PreferenceList preferences;
};

std::vector<BuiltinApp> builtin_apps() {
  std::vector<BuiltinApp> apps;
  apps.push_back({"renderer", avf::examples::renderer_spec(),
                  avf::examples::renderer_preferences()});
  apps.push_back({"pipeline", avf::examples::pipeline_spec(),
                  avf::examples::pipeline_preferences()});
  apps.push_back(
      {"viz", avf::viz::viz_app_spec(), avf::examples::viz_preferences()});
  return apps;
}

int usage(std::ostream& out, int code) {
  out << "usage: avf_lint [--json] [--strict] [--max-configs N] "
         "[--db FILE] [app...]\n"
         "  apps: renderer | pipeline | viz (default: all)\n"
         "  --db FILE requires exactly one app to lint the database "
         "against\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool strict = false;
  std::optional<std::string> db_path;
  Options options;
  std::vector<std::string> requested;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--db") {
      if (++i == argc) return usage(std::cerr, 2);
      db_path = argv[i];
    } else if (arg == "--max-configs") {
      if (++i == argc) return usage(std::cerr, 2);
      const auto max_configs = avf::cli::parse_int(
          argv[i], 0, std::numeric_limits<long long>::max());
      if (!max_configs) return usage(std::cerr, 2);
      options.max_configs = static_cast<std::size_t>(*max_configs);
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      return usage(std::cerr, 2);
    } else {
      requested.push_back(arg);
    }
  }

  std::vector<BuiltinApp> apps = builtin_apps();
  std::vector<const BuiltinApp*> selected;
  if (requested.empty()) {
    for (const BuiltinApp& app : apps) selected.push_back(&app);
  } else {
    for (const std::string& name : requested) {
      const BuiltinApp* found = nullptr;
      for (const BuiltinApp& app : apps) {
        if (app.name == name) found = &app;
      }
      if (found == nullptr) {
        std::cerr << "unknown app: " << name << '\n';
        return usage(std::cerr, 2);
      }
      selected.push_back(found);
    }
  }
  if (db_path && selected.size() != 1) {
    std::cerr << "--db requires exactly one app\n";
    return usage(std::cerr, 2);
  }

  std::optional<avf::perfdb::PerfDatabase> db;
  if (db_path) {
    std::ifstream in(*db_path);
    if (!in) {
      std::cerr << "cannot open database: " << *db_path << '\n';
      return 2;
    }
    try {
      db = avf::perfdb::PerfDatabase::load(in);
    } catch (const std::exception& e) {
      std::cerr << "cannot parse database " << *db_path << ": " << e.what()
                << '\n';
      return 2;
    }
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const BuiltinApp* app : selected) {
    Report report = avf::lint::lint_app(
        app->spec, &app->preferences, db ? &*db : nullptr, options);
    errors += report.error_count();
    warnings += report.warning_count();
    if (json) {
      std::cout << "{\"app\":\"" << avf::lint::json_escape(app->name)
                << "\",\"report\":";
      report.print_json(std::cout);
      std::cout << "}\n";
    } else {
      std::cout << "== " << app->name << " ==\n";
      report.print(std::cout);
    }
  }
  if (errors > 0) return 1;
  if (strict && warnings > 0) return 1;
  return 0;
}
