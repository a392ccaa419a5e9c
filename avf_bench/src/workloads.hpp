// The benchmark's three workloads (README.md says why each exists):
//
//   paper_sessions     independent single-client adaptive sessions at the
//                      paper's scale, on worker threads
//   shared_link_scale  hundreds of adaptive sessions in one world over one
//                      churning link
//   profile_grid       the offline phase: profiling the paper's grid
//
// Each workload generates its inputs from the seed, prepares in setup(),
// and runs one complete batch per rep() over fresh server-side caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace avf_bench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;       ///< reduced sizes (the smoke test)
  std::size_t threads = 1;  ///< worker threads where a workload has them
};

/// Everything one rep produced.
struct RepResult {
  double wall_s = 0.0;        ///< host seconds of the rep
  std::size_t attempted = 0;  ///< sessions or profiling runs
  std::size_t failed = 0;     ///< threw, got kError, or stayed incomplete
  std::vector<std::string> errors;
  /// Must repeat bit-for-bit across reps and between traced and untraced
  /// runs: sim-time metrics and deterministic per-layer counts.
  std::map<std::string, double> exact;
  std::map<std::string, std::uint64_t> fingerprints;
  /// Counts of caches shared by worker threads: their hit/miss split
  /// depends on thread interleaving (not in one-thread reps).
  std::map<std::string, double> shared;
  /// Traced reps: the share of the rep's wall time (profile_grid: of its
  /// profiling runs' time) that layer spans account for.
  double coverage = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Preparation the reps consume: image decode and database build.
  /// Repeatable; throws if a repetition produced a different database.
  virtual void setup(SpanSink& sink) = 0;
  /// One complete batch.  With `sink`, spans are recorded and simulations
  /// are stepped (see trace.hpp) on the calling thread only, because a
  /// step's probe reads caches that every world of the rep shares.  With
  /// `serial` and no sink, the same one-thread batch runs uninstrumented:
  /// the reference for the tracing overhead.  Otherwise nothing is
  /// instrumented and worker threads are used where the workload has them.
  virtual RepResult rep(SpanSink* sink, bool serial) = 0;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

}  // namespace avf_bench
