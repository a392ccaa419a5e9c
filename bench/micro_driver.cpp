// Micro-benchmark: parallel profiling driver scaling and determinism.
//
// Profiles a synthetic application on a thread pool at 1/2/4/hw workers
// and verifies the central contract of the parallel pipeline: the database
// assembled by profile() at ANY thread count is bit-for-bit identical
// (save() bytes, compared via FNV-1a fingerprint) to profile_serial().
// Exits non-zero on a fingerprint mismatch or if 4 workers fail to reach
// 2.5x over 1 worker.
//
// The RunFn emulates a virtual-execution-environment run: each profiling
// run *waits* on the sandboxed application (sleep-bound, ~400us), which is
// exactly the regime the paper's driver lives in — wall time is dominated
// by the testbed, not the coordinator, so worker threads overlap waits and
// the sweep scales with thread count even on a single core.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "perfdb/driver.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace avf;
using perfdb::PerfDatabase;
using perfdb::ProfilingDriver;
using perfdb::ResourcePoint;
using tunable::AppSpec;
using tunable::ConfigPoint;
using tunable::QosVector;

AppSpec make_spec() {
  AppSpec spec("synthetic-parallel");
  spec.space().add_parameter("mode", {0, 1, 2, 3});
  spec.space().add_parameter("level", {0, 1, 2});
  spec.metrics().add("time", tunable::Direction::kLowerBetter);
  spec.metrics().add("quality", tunable::Direction::kHigherBetter);
  spec.add_resource_axis("cpu_share");
  spec.add_resource_axis("net_bps");
  return spec;
}

/// Deterministic analytic model with a knee (so refinement has work to do).
QosVector model(const ConfigPoint& config, const ResourcePoint& at) {
  double cpu = at[0];
  double bw = at[1];
  int mode = config.get("mode");
  int level = config.get("level");
  QosVector q;
  double base = 4.0 / cpu + 2e6 / bw + level;
  if (mode % 2 == 1 && cpu < 0.45) base *= 40.0;  // sharp knee
  q.set("time", base);
  q.set("quality", 1.0 + mode + 0.25 * level);
  return q;
}

constexpr auto kRunWait = std::chrono::microseconds(1000);

ProfilingDriver::RunFn make_run() {
  return [](const ConfigPoint& c, const ResourcePoint& p) {
    std::this_thread::sleep_for(kRunWait);  // the emulated testbed run
    return model(c, p);
  };
}

std::uint64_t fingerprint(const PerfDatabase& db) {
  std::ostringstream out;
  db.save(out);
  const std::string bytes = out.str();
  // FNV-1a from this bench's historic basis (not util::kFnv1aOffset), so
  // printed fingerprints stay comparable across revisions.
  return util::fnv1a64(bytes.data(), bytes.size(), 1469598103934665603ull);
}

}  // namespace

int main() {
  const AppSpec spec = make_spec();
  const std::vector<std::vector<double>> grid = {
      {0.2, 0.4, 0.6, 0.8}, {100e3, 400e3, 700e3, 1000e3}};

  ProfilingDriver::Options base;
  base.refinement_rounds = 1;
  base.sensitivity_threshold = 0.5;
  base.max_suggestions_per_round = 16;

  // Determinism oracle: the reference single-threaded path.
  const std::uint64_t want =
      fingerprint(ProfilingDriver([](const ConfigPoint& c,
                                     const ResourcePoint& p) {
                    return model(c, p);  // no need to sleep for the oracle
                  },
                  base)
                      .profile_serial(spec, grid));

  const std::size_t hw = util::ThreadPool::resolve_threads(0);
  std::vector<std::size_t> sweep = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) sweep.push_back(hw);

  std::printf("micro_driver: 12 configs x 16 grid points, %zu hw threads\n",
              hw);
  std::printf("%-24s %12s %10s %18s\n", "case", "wall_ms", "speedup",
              "fingerprint");

  bool ok = true;
  double wall_1 = 0.0;
  double speedup_4 = 0.0;
  std::vector<bench::JsonBenchCase> cases;
  for (std::size_t threads : sweep) {
    ProfilingDriver::Options options = base;
    options.threads = threads;
    ProfilingDriver driver(make_run(), options);

    auto start = std::chrono::steady_clock::now();
    PerfDatabase db = driver.profile(spec, grid);
    auto stop = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (threads == 1) wall_1 = wall_ms;
    double speedup = wall_1 > 0.0 ? wall_1 / wall_ms : 0.0;
    if (threads == 4) speedup_4 = speedup;

    std::uint64_t got = fingerprint(db);
    bool match = got == want;
    ok = ok && match;
    std::printf("%-24s %12.2f %9.2fx   %016" PRIx64 " %s\n",
                ("profile/threads=" + std::to_string(threads)).c_str(),
                wall_ms, speedup, got, match ? "ok" : "MISMATCH");

    bench::JsonBenchCase c;
    c.label = "profile/threads=" + std::to_string(threads);
    c.wall_ns = wall_ms * 1e6;
    c.threads = static_cast<int>(threads);
    c.extra["speedup"] = speedup;
    c.extra["fingerprint_match"] = match ? 1.0 : 0.0;
    cases.push_back(std::move(c));
  }
  bench::write_bench_json("micro_driver", cases);

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: parallel profile() diverged from profile_serial()\n");
    return 1;
  }
  // Scaling floor, overridable for instrumented builds (sanitizers slow
  // the coordinator, not the sleep-bound runs, but heavyweight tools still
  // eat into the overlap): AVF_MIN_SPEEDUP=0 disables the gate.
  double min_speedup = 2.5;
  if (const char* env = std::getenv("AVF_MIN_SPEEDUP")) {
    min_speedup = std::atof(env);
  }
  if (speedup_4 < min_speedup) {
    std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < %.2fx\n", speedup_4,
                 min_speedup);
    return 1;
  }
  std::printf("all fingerprints identical; 4-thread speedup %.2fx\n",
              speedup_4);
  return 0;
}
