// avf_bench: end-to-end benchmark of the framework's two phases — offline
// profiling into a performance database and run-time adaptation of live
// Active Visualization sessions.  README.md describes the workloads, the
// metrics and the trace.
//
//   avf_bench --workload <name> --seed <n> [--seconds S] [--reps R]
//             [--trace 0|1] [--smoke] [--out result.json]
//             [--spans spans.jsonl]
//
// One process runs one workload on min(4, nproc) threads: set-ups for a
// tenth of S seconds, one warm-up rep, timed reps for four fifths of S,
// then set-ups for another tenth; at least 3 set-ups and 3 reps (at least
// R reps with --reps).  With --trace 1, one traced rep (on one thread)
// follows, then an untraced one-thread rep as the overhead reference.
// Host times are reported as the median over the run's reps (set-ups).
// A shared host's speed drifts by up to 2x over seconds as other tenants
// come and go; a median over a long run follows that drift least of the
// statistics tried (README.md, "Spreads measured").  The last line of
// stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, the metrics being the
// end-to-end ones untraced and the per-layer ones traced.  The exit code
// is 1 when any correctness check fails.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "avf_git_rev.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace avf_bench;

/// End-to-end metrics (BENCHMARK.json "end_to_end"), printed untraced.
const std::vector<std::string> kEndToEnd{"wall_s", "setup_s", "peak_rss_mb"};

/// Per-layer metrics (BENCHMARK.json "per_layer"), printed traced.
/// Counts a workload cannot observe read 0.
const std::vector<std::string> kPerLayer{
    "sim.events", "sim.events_per_s", "sim.compactions", "sim.far_removals",
    "sim.fluid.link.full_reallocs", "sim.fluid.link.fast_reallocs",
    "sim.fluid.link.rate_rescales", "sim.fluid.link.flows_skipped",
    "sim.fluid.link.sparse_events", "sim.fluid.link.level_updates",
    "sim.fluid.cpu.full_reallocs", "sim.fluid.cpu.fast_reallocs",
    "sim.fluid.cpu.rate_rescales", "sim.fluid.cpu.flows_skipped",
    "sim.fluid.cpu.sparse_events", "sim.fluid.cpu.level_updates",
    "sim.link_ns", "sim.other_ns",
    "viz.server.requests", "viz.server.raw_bytes", "viz.server.wire_bytes",
    "viz.server.protocol_errors", "viz.region.hits", "viz.region.misses",
    "viz.chunk.hits", "viz.chunk.misses", "viz.size.hits", "viz.size.misses",
    "viz.store.hit_ratio", "viz.store.bytes_resident",
    "viz.store.bytes_deduped", "viz.store.evictions", "viz.store.collisions",
    "viz.server_ns", "viz.client_ns", "viz.world_ns",
    "codec.compress_ns",
    "wavelet.pyramid_ns",
    "adapt.checks", "adapt.ticks_per_s", "adapt.ticks_skipped",
    "adapt.triggers", "adapt.adaptations", "adapt.decision_cache.hits",
    "adapt.decision_cache.misses", "adapt.decision_cache.hit_ratio",
    "adapt.decision_cache.invalidations", "adapt.decide_ns",
    "adapt.stack_ns",
    "perfdb.records", "perfdb.profile_runs", "perfdb.prediction_cache.hits",
    "perfdb.prediction_cache.misses", "perfdb.build_ns", "perfdb.run_ns",
    "perfdb.run_p50_ns", "perfdb.run_p90_ns", "perfdb.run_busy_frac",
    "trace.coverage", "trace.overhead_frac", "trace.steps"};

/// Below this share of a traced rep's wall time covered by spans, the
/// attribution is too partial to trust.
constexpr double kMinCoverage = 0.95;

/// Set-ups fill this share of --seconds, timed reps the rest.  Even a
/// cheap set-up fills it: the host has slow spells of a second or so, and
/// set-ups packed into a fraction of a second could all land in one.
constexpr double kSetupShare = 0.2;
/// Fewest timed reps and set-ups of a full-size run.
constexpr std::size_t kMinSamples = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t reps = 0;  ///< fewest timed reps; 0: kMinSamples
  bool trace = false;
  bool smoke = false;
  std::size_t threads = 1;
  std::string out;
  std::string spans;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "avf_bench: " << error << "\n"
            << "usage: avf_bench --workload <name> --seed <n> [--seconds S]"
               " [--reps R] [--trace 0|1] [--smoke] [--out FILE]"
               " [--spans FILE]\n"
            << "workloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = parse_count(flag, next());
    } else if (flag == "--seconds") {
      const std::string v = next();
      try {
        a.seconds = std::stod(v);
      } catch (const std::exception&) {
        usage("--seconds needs a number, got '" + v + "'");
      }
      seconds_set = true;
    } else if (flag == "--reps") {
      a.reps = parse_count(flag, next());
    } else if (flag == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--spans") {
      a.spans = next();
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.smoke && !seconds_set) a.seconds = 0.0;
  a.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  return a;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_of(const std::vector<double>& values) {
  return quartiles(values).median;
}

std::vector<double> walls_of(const std::vector<RepResult>& reps) {
  std::vector<double> walls;
  for (const RepResult& r : reps) walls.push_back(r.wall_s);
  return walls;
}

/// Names whose exact values (compared as bit patterns, so NaN == NaN) or
/// fingerprints differ between two reps, over the names both report.
std::vector<std::string> exact_differences(const RepResult& a,
                                           const RepResult& b) {
  std::vector<std::string> diff;
  for (const auto& [name, value] : a.exact) {
    auto it = b.exact.find(name);
    if (it != b.exact.end() && std::bit_cast<std::uint64_t>(value) !=
                                   std::bit_cast<std::uint64_t>(it->second)) {
      diff.push_back(name);
    }
  }
  for (const auto& [name, value] : a.fingerprints) {
    auto it = b.fingerprints.find(name);
    if (it == b.fingerprints.end() || it->second != value) {
      diff.push_back(name);
    }
  }
  return diff;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

/// Span time of a layer: its median over the traced reps when they
/// recorded it, else over the set-ups (database builds, image decode).
double layer_ns(Layer layer, const std::vector<SpanSink>& traced,
                const std::vector<SpanSink>& setups) {
  for (const std::vector<SpanSink>* group : {&traced, &setups}) {
    std::vector<double> values;
    bool seen = false;
    for (const SpanSink& s : *group) {
      values.push_back(static_cast<double>(s.total_ns(layer)));
      seen = seen || s.count(layer) > 0;
    }
    if (seen) return median_of(values);
  }
  return 0.0;
}

/// The per-layer metric values of a finished run.  `serial` holds the
/// untraced one-thread reps that the traced reps' overhead is taken over.
std::map<std::string, double> per_layer_values(
    const Args& args, const RepResult& counted, double wall_s,
    const std::vector<RepResult>& traced, const std::vector<RepResult>& serial,
    const std::vector<SpanSink>& traced_sinks,
    const std::vector<SpanSink>& setup_sinks) {
  std::map<std::string, double> v;
  for (const std::string& name : kPerLayer) {
    auto exact = counted.exact.find(name);
    auto shared = counted.shared.find(name);
    v[name] = exact != counted.exact.end()     ? exact->second
              : shared != counted.shared.end() ? shared->second
                                               : 0.0;
  }
  v["sim.events_per_s"] = v["sim.events"] / wall_s;
  v["adapt.ticks_per_s"] = v["adapt.checks"] / wall_s;

  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    v[std::string(layer_name(layer)) + "_ns"] =
        layer_ns(layer, traced_sinks, setup_sinks);
  }
  // Profiling runs: from the traced reps when they profiled (on one
  // thread), else from a set-up's database build (on args.threads).
  const SpanSink* runs = nullptr;
  double run_threads = 1.0;
  if (!traced_sinks.empty() && !traced_sinks.front().run_durations().empty()) {
    runs = &traced_sinks.front();
  } else if (!setup_sinks.front().run_durations().empty()) {
    runs = &setup_sinks.front();
    run_threads = static_cast<double>(args.threads);
  }
  if (runs != nullptr) {
    std::vector<double> d(runs->run_durations().begin(),
                          runs->run_durations().end());
    std::sort(d.begin(), d.end());
    v["perfdb.run_p50_ns"] = percentile(d, 50.0);
    v["perfdb.run_p90_ns"] = percentile(d, 90.0);
    const double build =
        static_cast<double>(runs->total_ns(Layer::kPerfdbBuild));
    if (build > 0.0) {
      v["perfdb.run_busy_frac"] =
          static_cast<double>(runs->total_ns(Layer::kPerfdbRun)) /
          (run_threads * build);
    }
    if (v["perfdb.profile_runs"] == 0.0) {
      v["perfdb.profile_runs"] = static_cast<double>(d.size());
    }
  }
  if (args.trace && !traced.empty()) {
    std::vector<double> coverage;
    for (const RepResult& r : traced) coverage.push_back(r.coverage);
    v["trace.coverage"] = median_of(coverage);
    v["trace.overhead_frac"] =
        median_of(walls_of(traced)) / median_of(walls_of(serial)) - 1.0;
    double steps = 0.0;
    for (Layer layer : {Layer::kCodecCompress, Layer::kVizServer,
                        Layer::kVizClient, Layer::kAdaptDecide,
                        Layer::kSimLink, Layer::kSimOther}) {
      steps += static_cast<double>(traced_sinks.front().count(layer));
    }
    v["trace.steps"] = steps;
  }
  return v;
}

void write_quartiles(JsonWriter& j, const std::string& name,
                     const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  j.key(name).begin_object();
  j.key("min").value(*std::min_element(samples.begin(), samples.end()));
  j.key("median").value(q.median);
  j.key("q1").value(q.q1);
  j.key("q3").value(q.q3);
  j.key("n").value(static_cast<std::uint64_t>(q.n));
  j.key("unit").value(unit_of(name));
  j.key("samples").begin_array();
  for (double s : samples) j.value(s);
  j.end_array();
  j.end_object();
}

void print_value(const std::string& name, double value) {
  std::printf("  %-38s %.17g %s\n", name.c_str(), value,
              unit_of(name).c_str());
}

int run(const Args& args) {
  const std::unique_ptr<Workload> workload = make_workload(
      args.workload, WorkloadOptions{.seed = args.seed,
                                     .smoke = args.smoke,
                                     .threads = args.threads});
  const bool keep_spans = !args.spans.empty();
  const std::size_t min_setups = args.smoke ? 2 : kMinSamples;
  const std::size_t min_reps =
      args.reps > 0 ? args.reps : (args.smoke ? 1 : kMinSamples);

  std::vector<double> setup_s;
  std::vector<SpanSink> setup_sinks;
  // Set-ups run in two blocks, before the warm-up and after the timed
  // reps, each filling half of their share of --seconds.  The host's speed
  // switches between a fast and a slow level every few seconds, and one
  // block of set-ups often fell wholly into one level.  None runs between
  // reps: set-ups there stacked their allocator arenas on the reps' in
  // peak RSS (paper_sessions: 122 MiB instead of 91).
  auto run_setups = [&](std::size_t at_least) {
    const Clock::time_point block_begin = Clock::now();
    while (setup_s.size() < at_least ||
           seconds_since(block_begin) < 0.5 * kSetupShare * args.seconds) {
      SpanSink sink(keep_spans && setup_s.empty());
      const Clock::time_point start = Clock::now();
      workload->setup(sink);
      setup_s.push_back(seconds_since(start));
      setup_sinks.push_back(std::move(sink));
      // Hand the set-up's freed memory back, so that the reps do not stack
      // their arenas on top of its.
      malloc_trim(0);
    }
  };
  run_setups((min_setups + 1) / 2);

  // The warm-up fills the process-wide memos (image pyramids) and is the
  // reference every later rep must reproduce exactly.
  const RepResult warm = workload->rep(nullptr, false);

  std::vector<RepResult> reps;
  const Clock::time_point begin = Clock::now();
  while (reps.size() < min_reps ||
         seconds_since(begin) < (1.0 - kSetupShare) * args.seconds) {
    reps.push_back(workload->rep(nullptr, false));
  }
  const double rss_mb = peak_rss_mb();
  run_setups(min_setups);

  std::vector<RepResult> traced;
  std::vector<SpanSink> traced_sinks;
  std::vector<RepResult> serial;
  if (args.trace) {
    SpanSink sink(keep_spans);
    traced.push_back(workload->rep(&sink, true));
    traced_sinks.push_back(std::move(sink));
    serial.push_back(workload->rep(nullptr, true));
  }

  // -- correctness ---------------------------------------------------------
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto check_rep = [&](const RepResult& r, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      problems.push_back(std::string(what) + ": " + e);
    }
    const std::vector<std::string> diff = exact_differences(warm, r);
    if (!diff.empty()) {
      problems.push_back(std::string(what) +
                         " differs from the warm-up in: " + join(diff));
    }
  };
  if (warm.failed > 0 || !warm.errors.empty()) {
    problems.push_back("warm-up rep failed: " + join(warm.errors));
  }
  for (const RepResult& r : reps) check_rep(r, "timed rep");
  for (const RepResult& r : traced) check_rep(r, "traced rep");
  for (const RepResult& r : serial) check_rep(r, "one-thread rep");
  std::size_t step_threads = 0;
  for (const SpanSink& s : traced_sinks) {
    step_threads = std::max(step_threads, s.step_threads());
  }
  if (step_threads > 1) {
    problems.push_back("a traced rep stepped worlds on " +
                       std::to_string(step_threads) +
                       " threads; its probes read caches those threads share");
  }

  const std::vector<double> walls = walls_of(reps);
  const Quartiles wall = quartiles(walls);
  const Quartiles setup = quartiles(setup_s);

  const RepResult& counted = traced.empty() ? warm : traced.front();
  const std::map<std::string, double> layers =
      per_layer_values(args, counted, wall.median, traced, serial,
                       traced_sinks, setup_sinks);
  if (args.trace && layers.at("trace.coverage") < kMinCoverage) {
    problems.push_back("trace coverage " +
                       std::to_string(layers.at("trace.coverage")) +
                       " is below " + std::to_string(kMinCoverage));
  }
  if (!args.spans.empty()) {
    std::vector<Span> spans = setup_sinks.front().spans();
    if (!traced_sinks.empty()) {
      const std::vector<Span>& t = traced_sinks.front().spans();
      spans.insert(spans.end(), t.begin(), t.end());
    }
    if (!write_spans_jsonl(args.spans, spans)) {
      problems.push_back("cannot write " + args.spans);
    }
  }
  const bool correct = problems.empty() && failed == 0;

  std::map<std::string, double> end_to_end{{"wall_s", wall.median},
                                           {"setup_s", setup.median},
                                           {"peak_rss_mb", rss_mb}};
  const std::map<std::string, double>& reported =
      args.trace ? layers : end_to_end;
  const std::vector<std::string>& reported_names =
      args.trace ? kPerLayer : kEndToEnd;

  // -- human-readable report -------------------------------------------------
  std::printf("avf_bench %s seed=%llu threads=%zu rev=%s setups=%zu"
              " reps=%zu traced_reps=%zu%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads,
              AVF_GIT_REV, setup_s.size(), reps.size(), traced.size(),
              args.smoke ? " smoke" : "");
  std::printf("end to end (median of n; quartiles q1 q3):\n");
  std::printf("  %-38s %.6f s (n=%zu; %.6f %.6f)\n", "wall_s", wall.median,
              wall.n, wall.q1, wall.q3);
  std::printf("  %-38s %.6f s (n=%zu; %.6f %.6f)\n", "setup_s", setup.median,
              setup.n, setup.q1, setup.q3);
  std::printf("  %-38s %.1f MiB\n", "peak_rss_mb", rss_mb);
  std::printf("simulated (exact; identical in every rep):\n");
  for (const auto& [name, value] : warm.exact) {
    if (layers.count(name) == 0) print_value(name, value);
  }
  for (const auto& [name, value] : warm.fingerprints) {
    std::printf("  %-38s %s\n", (name + "_fingerprint").c_str(),
                hex64(value).c_str());
  }
  std::printf("per layer%s:\n", args.trace ? " (spans from traced reps)" : "");
  for (const std::string& name : kPerLayer) print_value(name, layers.at(name));
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n",
                                                    p.c_str());
  std::printf("attempted=%zu failed=%zu correct=%s\n", attempted, failed,
              correct ? "true" : "false");

  // -- files -----------------------------------------------------------------
  if (!args.out.empty()) {
    JsonWriter j;
    j.begin_object();
    j.key("benchmark").value("avf_bench");
    j.key("git_rev").value(AVF_GIT_REV);
    j.key("workload").value(args.workload);
    j.key("seed").value(args.seed);
    j.key("threads").value(static_cast<std::uint64_t>(args.threads));
    j.key("trace").value(args.trace);
    j.key("smoke").value(args.smoke);
    // Distinct threads that stepped worlds in the traced rep; more than
    // one fails the checks.
    j.key("trace_step_threads").value(static_cast<std::uint64_t>(step_threads));
    j.key("correct").value(correct);
    j.key("attempted").value(static_cast<std::uint64_t>(attempted));
    j.key("failed").value(static_cast<std::uint64_t>(failed));
    j.key("problems").begin_array();
    for (const std::string& p : problems) j.value(p);
    j.end_array();
    j.key("metrics").begin_object();
    for (const std::string& name : reported_names) {
      j.key(name).begin_object();
      j.key("value").value(reported.at(name));
      j.key("unit").value(unit_of(name));
      j.end_object();
    }
    j.end_object();
    j.key("host").begin_object();
    write_quartiles(j, "wall_s", walls);
    write_quartiles(j, "setup_s", setup_s);
    if (!traced.empty()) {
      write_quartiles(j, "traced_wall_s", walls_of(traced));
      write_quartiles(j, "one_thread_wall_s", walls_of(serial));
    }
    j.end_object();
    j.key("exact").begin_object();
    for (const auto& [name, value] : warm.exact) j.key(name).value(value);
    j.end_object();
    j.key("fingerprints").begin_object();
    for (const auto& [name, value] : warm.fingerprints) {
      j.key(name).value(hex64(value));
    }
    j.end_object();
    j.key("per_layer").begin_object();
    for (const auto& [name, value] : layers) j.key(name).value(value);
    j.end_object();
    j.end_object();
    std::ofstream out(args.out);
    out << j.str() << "\n";
    if (!out) {
      std::cerr << "avf_bench: cannot write " << args.out << "\n";
      return 1;
    }
  }

  // -- the result line (last line of stdout) ---------------------------------
  JsonWriter line;
  line.begin_object();
  line.key("correct").value(correct);
  line.key("attempted").value(static_cast<std::uint64_t>(attempted));
  line.key("failed").value(static_cast<std::uint64_t>(failed));
  line.key("metrics").begin_object();
  for (const std::string& name : reported_names) {
    line.key(name).begin_object();
    line.key("value").value(reported.at(name));
    line.key("unit").value(unit_of(name));
    line.end_object();
  }
  line.end_object();
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "avf_bench: " << e.what() << "\n";
    return 1;
  }
}
