// Spans for the traced benchmark run, recorded from the benchmark's own
// code around its calls into each layer of the framework.
//
// Set-up phases (database build, image decode, world and stack
// construction, each profiling run) are timed directly.  The run phase of
// a simulation is driven one event at a time through sim::Simulator::step,
// and each step becomes one span charged to the first layer, in priority
// order, whose O(1) public counters moved during it:
//
//   1. codec.compress  chunk-cache misses (a real compression ran)
//   2. viz.server      server request/byte counters, region-cache lookups,
//                      or the server CPU's fluid counters
//   3. viz.client      the client host CPU's fluid counters
//   4. adapt.decide    decision-cache lookups
//   5. sim.link        the link's fluid counters
//   6. sim.other       everything else: controller ticks, timers, wake-ups
//
// Blind spots: work a step does after resuming a process (client-side
// decode, fluid reallocation) is charged to that step's class, and there
// is no direct span for controller ticks — they land in sim.other unless
// they looked up a decision.
//
// The cache counters a probe reads are shared by every world of a rep, so
// a step is classified correctly only while no other thread touches those
// caches: traced reps run on one thread, and SpanSink::step_threads()
// lets the caller check that they did.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "adapt/decision_cache.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/simulator.hpp"
#include "viz/caches.hpp"
#include "viz/server.hpp"
#include "viz/world.hpp"

namespace avf_bench {

using Clock = std::chrono::steady_clock;

/// Span classes.  The first six are step classes, in classification
/// priority order; the rest time whole calls.
enum class Layer : std::uint8_t {
  kCodecCompress,
  kVizServer,
  kVizClient,
  kAdaptDecide,
  kSimLink,
  kSimOther,
  kVizWorld,        ///< VizWorld construction
  kAdaptStack,      ///< scheduler/monitor/steering/controller + configure()
  kPerfdbRun,       ///< one profiling RunFn call (encloses its world/steps)
  kPerfdbBuild,     ///< a whole ProfilingDriver::profile / database build
  kWaveletPyramid,  ///< image synthesis + decomposition + content hash
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Dotted layer name, e.g. "codec.compress".
const char* layer_name(Layer layer);

/// One recorded span.  Times are ns since the process's trace epoch;
/// `unit` identifies the session or profiling run the span belongs to
/// (0 = none), so spans of one unit can be grouped.
struct Span {
  Layer layer;
  std::uint32_t thread;
  std::uint64_t unit;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-thread span sink: totals per layer, and every span when asked to
/// keep them (--spans).  Not thread-safe; merge per-thread sinks after the
/// parallel section.
class SpanSink {
 public:
  explicit SpanSink(bool keep_spans = false, std::uint32_t thread = 0)
      : keep_spans_(keep_spans), thread_(thread) {}

  void add(Layer layer, Clock::time_point start, Clock::time_point end,
           std::uint64_t unit = 0);
  void merge(const SpanSink& other);

  bool keeps_spans() const { return keep_spans_; }
  std::int64_t total_ns(Layer layer) const {
    return ns_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t count(Layer layer) const {
    return n_[static_cast<std::size_t>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of every perfdb.run span (for its percentiles).
  const std::vector<std::int64_t>& run_durations() const {
    return run_ns_;
  }
  /// Number of distinct OS threads that added step spans (the first six
  /// layers).  More than one means probes read caches that another thread
  /// could move, and the step classification is not to be trusted.
  std::size_t step_threads() const { return step_threads_.size(); }

 private:
  void note_step_thread(std::thread::id id);

  bool keep_spans_;
  std::uint32_t thread_;
  std::array<std::int64_t, kLayerCount> ns_{};
  std::array<std::uint64_t, kLayerCount> n_{};
  std::vector<Span> spans_;
  std::vector<std::int64_t> run_ns_;
  std::vector<std::thread::id> step_threads_;
};

/// Write spans as JSON lines: {"name","thread","unit","start_ns","end_ns"}.
/// Returns false when the file cannot be written.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

/// The O(1) public counters of one world that tell which layer a step
/// worked in.  Null cache pointers are skipped.
struct WorldProbe {
  const avf::sim::FluidResource* link_forward = nullptr;
  const avf::sim::FluidResource* link_backward = nullptr;
  const avf::sim::FluidResource* client_cpu = nullptr;
  const avf::sim::FluidResource* server_cpu = nullptr;
  const avf::viz::VizServer* server = nullptr;
  const avf::viz::RegionEncodeCache* region_cache = nullptr;
  const avf::viz::CompressedChunkCache* chunk_cache = nullptr;
  const avf::adapt::DecisionCache* decisions = nullptr;

  static WorldProbe of(avf::viz::VizWorld& world,
                       const avf::viz::WorldSetup& setup,
                       const avf::adapt::DecisionCache* decisions);
};

/// Run `sim` to completion one event per step, adding each step to `sink`
/// under its class (see the file comment).  Finishes with sim.run(), so the
/// final clock equals that of an untraced sim.run().
void run_stepped(avf::sim::Simulator& sim, const WorldProbe& probe,
                 SpanSink& sink, std::uint64_t unit);

}  // namespace avf_bench
