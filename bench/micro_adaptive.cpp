// Micro-benchmark: decision-tree-guided adaptive profiling vs the
// exhaustive oracle on the real viz application (small world: 128x128
// image, 18 configs x 4x4 resource grid = 288 cells).
//
// For each budget the adaptive driver measures a seeded space-filling
// sample plus tree-guided rounds, predicts the rest, and the bench scores
// every predicted cell against the exhaustively profiled database.  Gates
// (exit non-zero on violation, thresholds env-overridable):
//   - at the gated budget, at most AVF_ADAPTIVE_MAX_FRACTION (default .25)
//     of the cells may be sandbox-measured;
//   - every predicted cell must be within AVF_ADAPTIVE_MAX_ERR (default
//     0.75 relative) of the oracle, with the mean far tighter
//     (AVF_ADAPTIVE_MEAN_ERR, default 0.10);
//   - the adaptive database must be byte-identical at 1 and 4 worker
//     threads (the budgeted rounds share profile()'s canonical-order
//     commit contract).
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "perfdb/driver.hpp"
#include "util/hash.hpp"
#include "viz/world.hpp"

namespace {

using namespace avf;
using perfdb::PerfDatabase;
using perfdb::Provenance;
using tunable::ConfigPoint;

const std::vector<double> kCpuGrid{0.15, 0.4, 0.7, 1.0};
const std::vector<double> kBwGrid{25e3, 100e3, 400e3, 1000e3};
constexpr std::uint64_t kSeed = 1;

viz::WorldSetup small_world(viz::ServerCaches& caches) {
  viz::WorldSetup setup;
  setup.image_size = 128;
  caches.attach(setup);
  return setup;
}

std::uint64_t fingerprint(const PerfDatabase& db) {
  std::ostringstream out;
  db.save(out);
  const std::string bytes = out.str();
  // FNV-1a from this bench's historic basis (not util::kFnv1aOffset), so
  // printed fingerprints stay comparable across revisions.
  return util::fnv1a64(bytes.data(), bytes.size(), 1469598103934665603ull);
}

double env_or(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) return std::atof(env);
  return fallback;
}

struct Score {
  std::size_t measured = 0;
  std::size_t predicted = 0;
  double max_rel_err = 0.0;
  double mean_rel_err = 0.0;
};

Score score_against_oracle(const PerfDatabase& db, const PerfDatabase& oracle) {
  Score s;
  double err_sum = 0.0;
  for (const ConfigPoint& config : oracle.configs()) {
    for (const perfdb::PerfRecord& r : db.records(config)) {
      auto want = oracle.predict(config, r.resources, perfdb::Lookup::kNearest);
      if (!want) continue;
      if (r.provenance == Provenance::kMeasured) {
        ++s.measured;
        continue;
      }
      ++s.predicted;
      for (const auto& m : oracle.schema().metrics()) {
        double rel = std::abs(r.quality.get(m.name) - want->get(m.name)) /
                     std::abs(want->get(m.name));
        err_sum += rel;
        if (rel > s.max_rel_err) s.max_rel_err = rel;
      }
    }
  }
  std::size_t metric_count = oracle.schema().metrics().size();
  if (s.predicted > 0) {
    s.mean_rel_err =
        err_sum / static_cast<double>(s.predicted * metric_count);
  }
  return s;
}

}  // namespace

int main() {
  viz::ServerCaches caches;
  const viz::WorldSetup setup = small_world(caches);
  const std::size_t cells =
      viz::viz_app_spec().space().enumerate().size() * kCpuGrid.size() *
      kBwGrid.size();

  auto t0 = std::chrono::steady_clock::now();
  const PerfDatabase oracle =
      viz::build_viz_database(setup, kCpuGrid, kBwGrid, 0, 0);
  auto t1 = std::chrono::steady_clock::now();
  const double oracle_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  std::printf("micro_adaptive: %zu cells (18 configs x %zux%zu grid), "
              "exhaustive oracle %.1f ms\n",
              cells, kCpuGrid.size(), kBwGrid.size(), oracle_ms);
  std::printf("%-22s %10s %10s %12s %12s %10s\n", "case", "measured",
              "fraction", "max_rel_err", "mean_rel_err", "wall_ms");

  const double max_fraction = env_or("AVF_ADAPTIVE_MAX_FRACTION", 0.25);
  const double max_err = env_or("AVF_ADAPTIVE_MAX_ERR", 0.75);
  const double mean_err = env_or("AVF_ADAPTIVE_MEAN_ERR", 0.10);
  const std::size_t gated_budget = static_cast<std::size_t>(
      max_fraction * static_cast<double>(cells) + 1e-9);

  bool ok = true;
  std::vector<bench::JsonBenchCase> cases;
  for (std::size_t budget :
       {cells / 8, gated_budget, cells / 2}) {
    auto start = std::chrono::steady_clock::now();
    PerfDatabase db = viz::build_viz_database_adaptive(
        setup, kCpuGrid, kBwGrid, budget, kSeed, 0);
    auto stop = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();

    Score s = score_against_oracle(db, oracle);
    const double fraction =
        static_cast<double>(s.measured) / static_cast<double>(cells);
    const bool gated = budget == gated_budget;
    bool pass = true;
    if (gated) {
      pass = fraction <= max_fraction + 1e-12 && s.max_rel_err <= max_err &&
             s.mean_rel_err <= mean_err;
      ok = ok && pass;
    }
    std::printf("%-22s %10zu %9.1f%% %12.4f %12.4f %10.1f %s\n",
                ("budget=" + std::to_string(budget)).c_str(), s.measured,
                100.0 * fraction, s.max_rel_err, s.mean_rel_err, wall_ms,
                gated ? (pass ? "ok (gated)" : "FAIL") : "");

    bench::JsonBenchCase c;
    c.label = "adaptive/budget=" + std::to_string(budget);
    c.wall_ns = wall_ms * 1e6;
    c.extra["budget"] = static_cast<double>(budget);
    c.extra["measured"] = static_cast<double>(s.measured);
    c.extra["sampled_fraction"] = fraction;
    c.extra["max_rel_err"] = s.max_rel_err;
    c.extra["mean_rel_err"] = s.mean_rel_err;
    c.extra["oracle_ms"] = oracle_ms;
    cases.push_back(std::move(c));
  }

  // Determinism gate: the budgeted rounds shard across the pool with the
  // same canonical-order commit contract as profile().
  const std::uint64_t fp1 = fingerprint(viz::build_viz_database_adaptive(
      setup, kCpuGrid, kBwGrid, gated_budget, kSeed, 1));
  const std::uint64_t fp4 = fingerprint(viz::build_viz_database_adaptive(
      setup, kCpuGrid, kBwGrid, gated_budget, kSeed, 4));
  const bool deterministic = fp1 == fp4;
  std::printf("threads 1 vs 4 fingerprint: %016" PRIx64 " vs %016" PRIx64
              " %s\n",
              fp1, fp4, deterministic ? "ok" : "MISMATCH");
  {
    bench::JsonBenchCase c;
    c.label = "determinism/threads=1v4";
    c.threads = 4;
    c.extra["fingerprint_match"] = deterministic ? 1.0 : 0.0;
    cases.push_back(std::move(c));
  }
  bench::write_bench_json("micro_adaptive", cases);

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: adaptive profile diverged across thread counts\n");
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: gated budget %zu missed the error/fraction bounds "
                 "(max_fraction=%.2f max_err=%.2f mean_err=%.2f)\n",
                 gated_budget, max_fraction, max_err, mean_err);
    return 1;
  }
  std::printf("adaptive profiling within bounds at <=%.0f%% sampling\n",
              100.0 * max_fraction);
  return 0;
}
