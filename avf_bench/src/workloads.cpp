#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "adapt/controller.hpp"
#include "adapt/monitor.hpp"
#include "adapt/scheduler.hpp"
#include "adapt/steering.hpp"
#include "perfdb/database.hpp"
#include "perfdb/driver.hpp"
#include "report.hpp"
#include "sandbox/schedule.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/fleet.hpp"
#include "tunable/preferences.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "viz/tile_store.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/image.hpp"
#include "wavelet/progressive.hpp"

namespace avf_bench {

namespace adapt = avf::adapt;
namespace perfdb = avf::perfdb;
namespace sandbox = avf::sandbox;
namespace sim = avf::sim;
namespace testkit = avf::testkit;
namespace tunable = avf::tunable;
namespace util = avf::util;
namespace viz = avf::viz;
namespace wavelet = avf::wavelet;

namespace {

using Counts = std::map<std::string, double>;

/// viz::WorldSetup's default image seed; image catalogs count up from it.
constexpr std::uint64_t kImageSeed = 2026;

struct Grid {
  std::vector<double> cpu;
  std::vector<double> bw;
};

/// The paper's profiling grid (the one viz::standard_viz_database uses).
Grid paper_grid() {
  return {{0.1, 0.2, 0.4, 0.6, 0.9, 1.0},
          {25e3, 50e3, 100e3, 250e3, 500e3, 1000e3}};
}

Grid smoke_grid() { return {{0.2, 1.0}, {50e3, 1000e3}}; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Small per-thread index for span records.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

template <typename T>
void shuffle(std::vector<T>& v, util::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// `n` values over [lo, hi): one per equal-width stratum at a seeded
/// offset inside it, in seeded order.  Every seed covers the range evenly,
/// so a seed changes which session gets which value but barely the total
/// work of a batch — host time stays comparable across seeds.
std::vector<double> stratified(util::SplitMix64& rng, std::size_t n,
                               double lo, double hi) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * (static_cast<double>(i) + rng.next_double()) /
                    static_cast<double>(n);
  }
  shuffle(v, rng);
  return v;
}

/// 0..k-1 repeated to length n, in seeded order.
std::vector<int> balanced_choice(util::SplitMix64& rng, std::size_t n,
                                 int k) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i % k);
  shuffle(v, rng);
  return v;
}

/// The examples' viz preferences (examples/specs.cpp): minimum transmit
/// time at full resolution within 4 s, else best-effort minimum transmit
/// time.
adapt::PreferenceList viz_preferences() {
  tunable::UserPreference best =
      tunable::minimize("transmit_time", "full-resolution");
  best.constraints.push_back({.metric = "resolution", .min = 4.0});
  best.constraints.push_back({.metric = "transmit_time", .max = 4.0});
  return {best, tunable::minimize("transmit_time", "best-effort")};
}

/// Fresh server-side caches for one batch, so their counters belong to it.
/// Both store layers share one content-addressed store.
struct ServerCaches {
  viz::CompressedSizeCache size;
  viz::TileStore store;
  viz::RegionEncodeCache region{store};
  viz::CompressedChunkCache chunk{store};

  void attach(viz::WorldSetup& setup) {
    setup.server_options.size_cache = &size;
    setup.server_options.region_cache = &region;
    setup.server_options.chunk_cache = &chunk;
  }

  void add_counts(Counts& out) const {
    out["viz.size.hits"] += static_cast<double>(size.hits());
    out["viz.size.misses"] += static_cast<double>(size.misses());
    out["viz.region.hits"] += static_cast<double>(region.hits());
    out["viz.region.misses"] += static_cast<double>(region.misses());
    out["viz.chunk.hits"] += static_cast<double>(chunk.hits());
    out["viz.chunk.misses"] += static_cast<double>(chunk.misses());
    const double lookups = static_cast<double>(store.hits() + store.misses());
    out["viz.store.hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(store.hits()) / lookups : 0.0;
    out["viz.store.bytes_resident"] =
        static_cast<double>(store.bytes_resident());
    out["viz.store.bytes_deduped"] = static_cast<double>(store.bytes_deduped());
    out["viz.store.evictions"] = static_cast<double>(store.evictions());
    out["viz.store.collisions"] = static_cast<double>(store.collisions());
  }
};

void add_decision_counts(Counts& out, const adapt::DecisionCache& cache) {
  const adapt::DecisionCache::Stats s = cache.stats();
  const double lookups = static_cast<double>(s.hits + s.misses);
  out["adapt.decision_cache.hits"] = static_cast<double>(s.hits);
  out["adapt.decision_cache.misses"] = static_cast<double>(s.misses);
  out["adapt.decision_cache.invalidations"] =
      static_cast<double>(s.invalidations);
  out["adapt.decision_cache.hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0;
}

void add_fluid_counts(Counts& out, const std::string& prefix,
                      const sim::FluidResource& r) {
  out[prefix + "full_reallocs"] += static_cast<double>(r.full_reallocs());
  out[prefix + "fast_reallocs"] += static_cast<double>(r.fast_reallocs());
  out[prefix + "rate_rescales"] += static_cast<double>(r.rate_rescales());
  out[prefix + "flows_skipped"] += static_cast<double>(r.flows_skipped());
  out[prefix + "sparse_events"] += static_cast<double>(r.sparse_events());
  out[prefix + "level_updates"] += static_cast<double>(r.level_updates());
}

void add_world_counts(Counts& out, viz::VizWorld& world) {
  const sim::Simulator& s = world.simulator();
  out["sim.events"] += static_cast<double>(s.events_processed());
  out["sim.compactions"] += static_cast<double>(s.compactions());
  out["sim.far_removals"] += static_cast<double>(s.far_removals());
  add_fluid_counts(out, "sim.fluid.link.", world.link().forward());
  add_fluid_counts(out, "sim.fluid.link.", world.link().backward());
  add_fluid_counts(out, "sim.fluid.cpu.", world.client_box(0).host().cpu());
  add_fluid_counts(out, "sim.fluid.cpu.", world.server_box().host().cpu());
  const viz::VizServer& server = world.server();
  out["viz.server.requests"] += static_cast<double>(server.requests_served());
  out["viz.server.raw_bytes"] +=
      static_cast<double>(server.raw_bytes_encoded());
  out["viz.server.wire_bytes"] += static_cast<double>(server.wire_bytes_sent());
  out["viz.server.protocol_errors"] +=
      static_cast<double>(server.protocol_errors());
}

/// Per-image QoS of a batch, the paper's metrics: p50/p99 of response and
/// transmit time over `qos_samples` images, and the makespan (latest image
/// end; the simulator clock is not used because a stepped run may stop
/// short of it).  A p99 is NaN unless 10 or more samples lie beyond it.
void add_image_qos(Counts& out, const viz::MultiSessionResult& result) {
  std::vector<double> response;
  std::vector<double> transmit;
  double makespan = 0.0;
  for (const viz::SessionResult& session : result.clients) {
    for (const viz::VizClient::ImageStats& image : session.images) {
      response.push_back(image.avg_response);
      transmit.push_back(image.transmit_time);
      makespan = std::max(makespan, image.end_time);
    }
  }
  std::sort(response.begin(), response.end());
  std::sort(transmit.begin(), transmit.end());
  const std::size_t n = response.size();
  const auto p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  const bool tail = n >= p99_rank + 10;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  out["qos_samples"] = static_cast<double>(n);
  out["response_time_p50_s"] = percentile(response, 50.0);
  out["response_time_p99_s"] = tail ? percentile(response, 99.0) : nan;
  out["transmit_time_p50_s"] = percentile(transmit, 50.0);
  out["transmit_time_p99_s"] = tail ? percentile(transmit, 99.0) : nan;
  out["makespan_s"] = makespan;
}

/// One session's adaptation stack.
struct Stack {
  std::unique_ptr<adapt::ResourceScheduler> scheduler;
  std::unique_ptr<adapt::MonitoringAgent> monitor;
  std::unique_ptr<adapt::SteeringAgent> steering;
  std::unique_ptr<adapt::AdaptationController> controller;
  tunable::ConfigPoint initial_config;
};

/// Wired as viz::run_adaptive_session wires it: initial selection from the
/// static resource view, then configure().  Only the first stack of a
/// batch lints the spec, preferences and database, which every session
/// shares (testkit::run_fleet does the same).
Stack make_stack(sim::Simulator& sim, const perfdb::PerfDatabase& db,
                 const adapt::PreferenceList& preferences,
                 const std::shared_ptr<adapt::DecisionCache>& decisions,
                 const std::vector<double>& initial, bool lint_spec) {
  Stack s;
  adapt::ResourceScheduler::Options scheduler_options;
  scheduler_options.decision_cache = decisions;
  s.scheduler = std::make_unique<adapt::ResourceScheduler>(db, preferences,
                                                           scheduler_options);
  s.monitor = std::make_unique<adapt::MonitoringAgent>(
      sim, viz::viz_app_spec().resource_axes());
  auto decision = s.scheduler->select(initial);
  if (!decision) throw std::runtime_error("empty performance database");
  s.initial_config = decision->config;
  s.steering = std::make_unique<adapt::SteeringAgent>(viz::viz_app_spec(),
                                                      decision->config);
  adapt::AdaptationController::Options controller_options;
  controller_options.validate_spec = lint_spec;
  s.controller = std::make_unique<adapt::AdaptationController>(
      sim, *s.scheduler, *s.monitor, *s.steering, controller_options);
  s.controller->configure(initial);
  return s;
}

void add_stack_counts(Counts& out, const Stack& s) {
  out["adapt.checks"] += static_cast<double>(s.controller->checks());
  out["adapt.ticks_skipped"] +=
      static_cast<double>(s.controller->ticks_skipped());
  out["adapt.triggers"] += static_cast<double>(s.monitor->triggers());
  out["adapt.adaptations"] +=
      static_cast<double>(s.controller->adaptations().size());
}

viz::SessionResult session_result(const viz::VizClient& client,
                                  const Stack& stack) {
  viz::SessionResult session;
  session.images = client.history();
  session.adaptations = stack.controller->adaptations();
  session.initial_config = stack.initial_config;
  return session;
}

std::uint64_t database_fingerprint(const perfdb::PerfDatabase& db) {
  std::ostringstream out;
  db.save(out);
  const std::string bytes = out.str();
  return util::Hasher128::of(bytes.data(), bytes.size()).lo;
}

void add_database_counts(RepResult& r, const perfdb::PerfDatabase& db) {
  r.fingerprints["perfdb.save"] = database_fingerprint(db);
  r.exact["perfdb.records"] = static_cast<double>(db.size());
  const perfdb::PerfDatabase::PredictionStats p = db.prediction_stats();
  r.exact["perfdb.prediction_cache.hits"] = static_cast<double>(p.cache_hits);
  r.exact["perfdb.prediction_cache.misses"] =
      static_cast<double>(p.cache_misses);
}

/// Decodes catalog images from scratch — synthesis, decomposition,
/// content hash: the calls the world's pyramid memo makes, repeated here
/// so every set-up pays them.  Returns a digest of the content hashes.
std::uint64_t decode_images(std::uint64_t first_seed, int count, int size,
                            int levels, SpanSink& sink) {
  util::Hasher128 digest;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    const wavelet::Image image = wavelet::Image::synthetic(
        size, size, first_seed + static_cast<std::uint64_t>(i));
    const wavelet::Pyramid pyramid(image, levels);
    const util::Hash128 h = wavelet::pyramid_content_hash(pyramid);
    sink.add(Layer::kWaveletPyramid, start, Clock::now());
    digest.update_u64(h.lo).update_u64(h.hi);
  }
  return digest.finish().lo;
}

/// Span time recorded in a rep (set-up spans are kept elsewhere).
double covered_ns(const SpanSink& sink) {
  double ns = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    ns += static_cast<double>(sink.total_ns(static_cast<Layer>(l)));
  }
  return ns;
}

/// Records a set-up's result; throws when a repetition differs.
void check_repeat(std::optional<std::uint64_t>& first, std::uint64_t value,
                  const char* what) {
  if (!first) {
    first = value;
  } else if (*first != value) {
    throw std::runtime_error(std::string("set-up is not deterministic: ") +
                             what + " changed between repetitions");
  }
}

/// Collects spans of profiling runs made on the driver's worker threads.
class RunRecorder {
 public:
  explicit RunRecorder(SpanSink& sink) : sink_(sink) {}

  /// `fn` with each call recorded as a perfdb.run span.
  perfdb::ProfilingDriver::RunFn timed(perfdb::ProfilingDriver::RunFn fn) {
    return [this, fn = std::move(fn)](const tunable::ConfigPoint& config,
                                      const perfdb::ResourcePoint& at) {
      SpanSink local(keep_spans_, thread_index());
      const Clock::time_point start = Clock::now();
      tunable::QosVector qos = fn(config, at);
      local.add(Layer::kPerfdbRun, start, Clock::now(), next_unit());
      merge(local);
      return qos;
    };
  }

  std::uint64_t next_unit() { return next_unit_.fetch_add(1) + 1; }
  bool keep_spans() const { return keep_spans_; }

  void merge(const SpanSink& local) AVF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    sink_.merge(local);
  }

 private:
  util::Mutex mutex_;
  SpanSink& sink_;
  const bool keep_spans_ = sink_.keeps_spans();
  std::atomic<std::uint64_t> next_unit_{0};
};

/// The viz performance database over `grid`, profiled in-process through
/// viz::make_viz_run_fn on fresh caches, so every build pays the full
/// compression cost.
perfdb::PerfDatabase build_viz_database(viz::WorldSetup base, const Grid& grid,
                                        std::size_t threads, SpanSink& sink) {
  ServerCaches caches;
  caches.attach(base);
  RunRecorder recorder(sink);
  perfdb::ProfilingDriver::Options options;
  options.threads = threads;
  perfdb::ProfilingDriver driver(recorder.timed(viz::make_viz_run_fn(base)),
                                 options);
  const Clock::time_point start = Clock::now();
  perfdb::PerfDatabase db =
      driver.profile(viz::viz_app_spec(), {grid.cpu, grid.bw});
  sink.add(Layer::kPerfdbBuild, start, Clock::now());
  return db;
}

// ---------------------------------------------------------------------------
// paper_sessions

/// 800 independent single-client adaptive sessions at the paper's scale
/// (1024x1024 images, 4 levels, 4 images each), each in its own world
/// with a seeded resource schedule: an initial link and CPU share, then a
/// bandwidth drop and a later CPU-share step.  Sessions run on worker
/// threads (traced reps: on one) against one shared DecisionCache.
class PaperSessions final : public Workload {
 public:
  explicit PaperSessions(const WorkloadOptions& options)
      : threads_(options.threads),
        pool_(options.threads),
        preferences_(viz_preferences()) {
    const bool smoke = options.smoke;
    const std::size_t n = smoke ? 6 : 800;
    contents_ = smoke ? 2 : 4;
    images_ = smoke ? 2 : 4;
    grid_ = smoke ? smoke_grid() : paper_grid();
    base_.image_size = smoke ? 256 : 1024;
    base_.image_count = images_;

    util::SplitMix64 rng(options.seed);
    const std::vector<double> link0 = stratified(rng, n, 250e3, 1000e3);
    const std::vector<double> cpu0 = stratified(rng, n, 0.4, 1.0);
    const std::vector<double> drop_at = stratified(rng, n, 2.0, 8.0);
    const std::vector<double> drop_to = stratified(rng, n, 0.1, 0.4);
    const std::vector<double> cpu_delay = stratified(rng, n, 2.0, 6.0);
    const std::vector<double> cpu1 = stratified(rng, n, 0.2, 0.5);
    const std::vector<double> start = stratified(rng, n, 0.0, 1.0);
    const std::vector<int> content = balanced_choice(rng, n, contents_);
    for (std::size_t i = 0; i < n; ++i) {
      inputs_.push_back(Input{
          .link0 = link0[i],
          .cpu0 = cpu0[i],
          .drop_at = drop_at[i],
          .link1 = link0[i] * drop_to[i],
          .cpu_at = drop_at[i] + cpu_delay[i],
          .cpu1 = cpu1[i],
          .start = start[i],
          .content = content[i],
      });
    }
  }

  void setup(SpanSink& sink) override {
    // The catalogs of all contents overlap: content k holds images
    // k..k+images-1.
    check_repeat(decoded_,
                 decode_images(kImageSeed, contents_ + images_ - 1,
                               base_.image_size, base_.levels, sink),
                 "image content");
    perfdb::PerfDatabase db = build_viz_database(base_, grid_, threads_, sink);
    check_repeat(db_fingerprint_, database_fingerprint(db), "database");
    if (db_) return;
    db_ = std::make_unique<perfdb::PerfDatabase>(std::move(db));
    // PerfDatabase builds each configuration's grid index lazily inside
    // const predictions, without a lock, so the first predictions of
    // concurrent sessions race on it (ThreadSanitizer reports it, and one
    // run in about thirty died of heap corruption).  Build every index
    // here, on one thread.
    for (const tunable::ConfigPoint& config : db_->configs()) {
      (void)db_->predict_uncached(config, {grid_.cpu[0], grid_.bw[0]});
    }
  }

  RepResult rep(SpanSink* sink, bool serial) override {
    ServerCaches caches;
    auto decisions = std::make_shared<adapt::DecisionCache>();
    std::vector<SessionOut> outs(inputs_.size());
    auto session = [&](std::size_t i) {
      outs[i] = run_session(i, caches, decisions, sink);
    };
    const Clock::time_point start = Clock::now();
    if (serial || sink != nullptr) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) session(i);
    } else {
      pool_.parallel_for(inputs_.size(), session);
    }
    const Clock::time_point end = Clock::now();

    RepResult r;
    r.wall_s = seconds_between(start, end);
    r.attempted = outs.size();
    viz::MultiSessionResult all;
    std::size_t met = 0;
    for (SessionOut& out : outs) {
      if (!out.error.empty()) {
        ++r.failed;
        if (r.errors.size() < 5) r.errors.push_back(out.error);
      }
      for (const auto& [name, value] : out.counts) r.exact[name] += value;
      for (const viz::VizClient::ImageStats& image : out.session.images) {
        // The first preference: full resolution within 4 s.
        if (image.resolution >= 4 && image.transmit_time <= 4.0) ++met;
      }
      all.clients.push_back(std::move(out.session));
    }
    add_image_qos(r.exact, all);
    all.total_time = r.exact["makespan_s"];
    r.exact["pref_met_frac"] =
        static_cast<double>(met) / static_cast<double>(outs.size() * images_);
    r.fingerprints["result"] = viz::result_fingerprint(all);
    r.fingerprints["adaptation"] = viz::adaptation_fingerprint(all);
    const adapt::DecisionCache::Stats stats = decisions->stats();
    r.exact["adapt.decision_cache.lookups"] =
        static_cast<double>(stats.hits + stats.misses);
    add_decision_counts(r.shared, *decisions);
    caches.add_counts(r.shared);
    if (sink != nullptr) r.coverage = covered_ns(*sink) / (r.wall_s * 1e9);
    return r;
  }

 private:
  struct Input {
    double link0;    ///< initial link bandwidth, B/s
    double cpu0;     ///< initial client CPU share
    double drop_at;  ///< link drops to link1 here
    double link1;
    double cpu_at;  ///< client CPU share steps to cpu1 here
    double cpu1;
    double start;  ///< the session's first request
    int content;   ///< catalog offset
  };

  struct SessionOut {
    viz::SessionResult session;
    Counts counts;
    std::string error;
  };

  SessionOut run_session(std::size_t i, ServerCaches& caches,
                         const std::shared_ptr<adapt::DecisionCache>& decisions,
                         SpanSink* sink) const {
    const Input& in = inputs_[i];
    const std::uint64_t unit = i + 1;
    SessionOut out;
    try {
      viz::WorldSetup setup = base_;
      setup.image_seed = kImageSeed + static_cast<std::uint64_t>(in.content);
      setup.client_cpu_share = in.cpu0;
      setup.link_bandwidth_bps = in.link0;
      caches.attach(setup);
      Clock::time_point t = Clock::now();
      viz::VizWorld world(setup);
      if (sink != nullptr) sink->add(Layer::kVizWorld, t, Clock::now(), unit);
      sim::Simulator& sim = world.simulator();

      t = Clock::now();
      Stack stack = make_stack(sim, *db_, preferences_, decisions,
                               {in.cpu0, in.link0}, i == 0);
      stack.controller->start();
      if (sink != nullptr) sink->add(Layer::kAdaptStack, t, Clock::now(), unit);

      viz::VizClient& client =
          world.make_client(*stack.steering, *stack.monitor);
      sim.spawn(world.server().run());
      auto driver = [](sim::Simulator* s, viz::VizClient* c,
                       adapt::AdaptationController* controller, double at,
                       int images) -> sim::Task<> {
        co_await s->delay(at);
        co_await c->fetch_images(0, images);
        co_await c->shutdown_server();
        controller->stop();
      };
      sim.spawn(driver(&sim, &client, stack.controller.get(), in.start,
                       images_));
      sandbox::apply_schedule(
          sim, world.client_box(),
          {sandbox::CapChange{.at = in.cpu_at, .cpu_share = in.cpu1}});
      sim::Link* link = &world.link();
      sim.schedule_at(in.drop_at,
                      [link, bps = in.link1] { link->set_bandwidth(bps); });

      if (sink != nullptr) {
        run_stepped(sim, WorldProbe::of(world, setup, decisions.get()), *sink,
                    unit);
      } else {
        sim.run();
      }
      out.session = session_result(client, stack);
      add_world_counts(out.counts, world);
      add_stack_counts(out.counts, stack);
      if (out.session.images.size() != static_cast<std::size_t>(images_)) {
        out.error = "session " + std::to_string(i) + " incomplete";
      } else if (world.server().protocol_errors() != 0) {
        out.error = "session " + std::to_string(i) + " got protocol errors";
      }
    } catch (const std::exception& e) {
      out.error = "session " + std::to_string(i) + ": " + e.what();
    }
    return out;
  }

  std::size_t threads_;
  util::ThreadPool pool_;
  adapt::PreferenceList preferences_;
  int contents_ = 0;
  int images_ = 0;
  Grid grid_;
  viz::WorldSetup base_;
  std::vector<Input> inputs_;
  std::unique_ptr<perfdb::PerfDatabase> db_;
  std::optional<std::uint64_t> db_fingerprint_;
  std::optional<std::uint64_t> decoded_;
};

// ---------------------------------------------------------------------------
// shared_link_scale

/// 352 adaptive sessions in one VizWorld: 256x256 images, every endpoint
/// capped at link/64, sessions arriving in waves one simulated second apart
/// while the link runs testkit::fleet_churn_schedule.
class SharedLinkScale final : public Workload {
 public:
  explicit SharedLinkScale(const WorkloadOptions& options)
      : threads_(options.threads), preferences_(viz_preferences()) {
    const bool smoke = options.smoke;
    // Every session keeps at most one flow on each CPU and link direction,
    // so fewer than FluidResource::kDefaultSparseThreshold sessions keep
    // every resource on the dense engine (README.md: the sparse engine's
    // fair-share completion event can respin forever at one timestamp).
    const std::size_t n = smoke ? 24 : 352;
    const int waves = smoke ? 2 : 8;
    images_ = 3;
    const int catalog = smoke ? 3 : 4;
    churn_duration_ = smoke ? 4.0 : 16.0;
    grid_ = smoke ? smoke_grid() : paper_grid();
    db_base_.image_size = 256;
    base_ = db_base_;
    base_.client_count = static_cast<int>(n);
    base_.image_count = catalog;
    base_.client_net_bps = base_.link_bandwidth_bps / 64.0;
    base_.server_net_bps = base_.link_bandwidth_bps / 64.0;

    util::SplitMix64 rng(options.seed);
    const std::vector<double> jitter = stratified(rng, n, 0.0, 0.25);
    first_image_ = balanced_choice(rng, n, catalog - images_ + 1);
    const std::size_t per_wave = (n + waves - 1) / waves;
    for (std::size_t i = 0; i < n; ++i) {
      start_.push_back(static_cast<double>(i / per_wave) * kWaveGap +
                       jitter[i]);
    }
    fault_seed_ = rng.next();
  }

  void setup(SpanSink& sink) override {
    check_repeat(decoded_,
                 decode_images(kImageSeed, base_.image_count,
                               base_.image_size, base_.levels, sink),
                 "image content");
    perfdb::PerfDatabase db =
        build_viz_database(db_base_, grid_, threads_, sink);
    check_repeat(db_fingerprint_, database_fingerprint(db), "database");
    if (!db_) db_ = std::make_unique<perfdb::PerfDatabase>(std::move(db));
  }

  /// One world on one simulator: always on the calling thread.
  RepResult rep(SpanSink* sink, bool /*serial*/) override {
    RepResult r;
    r.attempted = start_.size();
    ServerCaches caches;
    auto decisions = std::make_shared<adapt::DecisionCache>();
    viz::MultiSessionResult all;
    const Clock::time_point start = Clock::now();
    try {
      viz::WorldSetup setup = base_;
      caches.attach(setup);
      Clock::time_point t = Clock::now();
      viz::VizWorld world(setup);
      if (sink != nullptr) sink->add(Layer::kVizWorld, t, Clock::now());
      sim::Simulator& sim = world.simulator();
      testkit::FaultInjector injector({.sim = &sim, .link = &world.link()},
                                      fault_seed_);
      testkit::FleetModel churn;
      churn.nominal_bw = setup.link_bandwidth_bps;
      injector.arm(testkit::fleet_churn_schedule(churn, churn_duration_));

      t = Clock::now();
      const std::vector<double> initial{
          setup.client_cpu_share,
          std::min(setup.link_bandwidth_bps, *setup.client_net_bps)};
      std::vector<Stack> stacks;
      stacks.reserve(start_.size());
      for (std::size_t i = 0; i < start_.size(); ++i) {
        stacks.push_back(make_stack(sim, *db_, preferences_, decisions,
                                    initial, i == 0));
        world.make_client_at(i, *stacks.back().steering,
                             *stacks.back().monitor);
      }
      if (sink != nullptr) sink->add(Layer::kAdaptStack, t, Clock::now());

      world.spawn_server_loops();
      // Open-loop arrivals: each session starts at its scheduled time,
      // whatever the server's progress.
      auto driver = [](sim::Simulator* s, viz::VizClient* c,
                       adapt::AdaptationController* controller, double at,
                       int first, int images) -> sim::Task<> {
        co_await s->delay(at);
        controller->start();
        co_await c->fetch_images(static_cast<std::uint32_t>(first), images);
        co_await c->shutdown_server();
        controller->stop();
      };
      for (std::size_t i = 0; i < start_.size(); ++i) {
        sim.spawn(driver(&sim, &world.client(i), stacks[i].controller.get(),
                         start_[i], first_image_[i], images_));
      }
      if (sink != nullptr) {
        run_stepped(sim, WorldProbe::of(world, setup, decisions.get()), *sink,
                    0);
      } else {
        sim.run();
      }
      for (std::size_t i = 0; i < start_.size(); ++i) {
        all.clients.push_back(session_result(world.client(i), stacks[i]));
        add_stack_counts(r.exact, stacks[i]);
        if (all.clients.back().images.size() !=
            static_cast<std::size_t>(images_)) {
          ++r.failed;
        }
      }
      add_world_counts(r.exact, world);
      if (world.server().protocol_errors() != 0) {
        r.errors.push_back("protocol errors on the shared server");
      }
    } catch (const std::exception& e) {
      r.failed = r.attempted;
      r.errors.push_back(e.what());
    }
    r.wall_s = seconds_between(start, Clock::now());

    if (r.failed > 0 && r.errors.empty()) {
      r.errors.push_back(std::to_string(r.failed) + " sessions incomplete");
    }
    add_image_qos(r.exact, all);
    all.total_time = r.exact["makespan_s"];
    r.fingerprints["result"] = viz::result_fingerprint(all);
    r.fingerprints["adaptation"] = viz::adaptation_fingerprint(all);
    // One thread: every cache counter is deterministic.
    add_decision_counts(r.exact, *decisions);
    caches.add_counts(r.exact);
    if (sink != nullptr) r.coverage = covered_ns(*sink) / (r.wall_s * 1e9);
    return r;
  }

 private:
  static constexpr double kWaveGap = 1.0;

  std::size_t threads_;
  adapt::PreferenceList preferences_;
  int images_ = 0;
  double churn_duration_ = 0.0;
  Grid grid_;
  viz::WorldSetup db_base_;
  viz::WorldSetup base_;
  std::vector<double> start_;
  std::vector<int> first_image_;
  std::uint64_t fault_seed_ = 0;
  std::unique_ptr<perfdb::PerfDatabase> db_;
  std::optional<std::uint64_t> db_fingerprint_;
  std::optional<std::uint64_t> decoded_;
};

// ---------------------------------------------------------------------------
// profile_grid

/// What viz::make_viz_run_fn does (run_fixed_session + its QoS summary),
/// with the simulation stepped and every step recorded.  Traced reps use
/// it; their database must equal the untraced one byte for byte, which
/// checks this copy against the library's.
tunable::QosVector stepped_viz_run(viz::WorldSetup setup,
                                   const tunable::ConfigPoint& config,
                                   const perfdb::ResourcePoint& at,
                                   SpanSink& sink, Counts& counts,
                                   std::uint64_t unit) {
  setup.image_count = 1;
  setup.client_cpu_share = at[0];
  setup.link_bandwidth_bps = at[1];
  if (!viz::viz_app_spec().space().valid(config)) {
    throw std::invalid_argument("invalid viz configuration: " + config.key());
  }
  const Clock::time_point t = Clock::now();
  viz::VizWorld world(setup);
  sink.add(Layer::kVizWorld, t, Clock::now(), unit);
  viz::VizClient& client = world.make_client(config);
  sim::Simulator& sim = world.simulator();
  sim.spawn(world.server().run());
  auto driver = [](viz::VizClient* c, int images) -> sim::Task<> {
    co_await c->fetch_images(0, images);
    co_await c->shutdown_server();
  };
  sim.spawn(driver(&client, setup.image_count));
  run_stepped(sim, WorldProbe::of(world, setup, nullptr), sink, unit);
  add_world_counts(counts, world);

  const std::vector<viz::VizClient::ImageStats>& images = client.history();
  tunable::QosVector qos;
  if (images.empty()) return qos;
  double transmit = 0.0;
  double response = 0.0;
  for (const viz::VizClient::ImageStats& s : images) {
    transmit += s.transmit_time;
    response += s.avg_response;
  }
  qos.set("transmit_time", transmit / static_cast<double>(images.size()));
  qos.set("response_time", response / static_cast<double>(images.size()));
  qos.set("resolution", images.back().resolution);
  return qos;
}

/// ProfilingDriver::profile of viz_app_spec() over the paper's grid
/// (jittered by the seed) at 1024x1024, plus one sensitivity refinement
/// round, on worker threads (traced reps: on one).  Every run is a fresh
/// small world.
class ProfileGrid final : public Workload {
 public:
  explicit ProfileGrid(const WorkloadOptions& options)
      : threads_(options.threads) {
    const bool smoke = options.smoke;
    base_.image_size = smoke ? 256 : 1024;
    grid_ = smoke ? smoke_grid() : paper_grid();
    util::SplitMix64 rng(options.seed);
    // Shrinking each point by up to 4% keeps the grid ordered: its gaps
    // are all wider than that.
    for (double& v : grid_.cpu) v *= 1.0 - 0.04 * rng.next_double();
    for (double& v : grid_.bw) v *= 1.0 - 0.04 * rng.next_double();
  }

  void setup(SpanSink& sink) override {
    check_repeat(decoded_,
                 decode_images(base_.image_seed, 1, base_.image_size,
                               base_.levels, sink),
                 "image content");
  }

  RepResult rep(SpanSink* sink, bool serial) override {
    ServerCaches caches;
    viz::WorldSetup base = base_;
    caches.attach(base);
    std::atomic<std::size_t> runs{0};
    Counts run_counts;
    std::optional<RunRecorder> recorder;
    perfdb::ProfilingDriver::RunFn run;
    if (sink == nullptr) {
      run = [fn = viz::make_viz_run_fn(base), &runs](
                const tunable::ConfigPoint& config,
                const perfdb::ResourcePoint& at) {
        runs.fetch_add(1, std::memory_order_relaxed);
        return fn(config, at);
      };
    } else {
      recorder.emplace(*sink);
      run = [&](const tunable::ConfigPoint& config,
                const perfdb::ResourcePoint& at) {
        runs.fetch_add(1, std::memory_order_relaxed);
        SpanSink local(recorder->keep_spans(), thread_index());
        Counts counts;
        const std::uint64_t unit = recorder->next_unit();
        const Clock::time_point start = Clock::now();
        tunable::QosVector qos =
            stepped_viz_run(base, config, at, local, counts, unit);
        local.add(Layer::kPerfdbRun, start, Clock::now(), unit);
        recorder->merge(local);
        for (const auto& [name, value] : counts) run_counts[name] += value;
        return qos;
      };
    }
    perfdb::ProfilingDriver::Options options;
    // Traced: one thread, so a step's probe sees only its own run's cache
    // traffic (and run_counts needs no lock).
    options.threads = serial || sink != nullptr ? 1 : threads_;
    options.refinement_rounds = 1;
    perfdb::ProfilingDriver driver(std::move(run), options);

    RepResult r;
    std::optional<perfdb::PerfDatabase> db;
    const Clock::time_point start = Clock::now();
    try {
      db.emplace(driver.profile(viz::viz_app_spec(), {grid_.cpu, grid_.bw}));
    } catch (const std::exception& e) {
      r.errors.push_back(e.what());
    }
    const Clock::time_point end = Clock::now();
    r.wall_s = seconds_between(start, end);
    r.attempted = runs.load();
    if (!db) {
      r.failed = r.attempted;
      return r;
    }
    add_database_counts(r, *db);
    r.exact["perfdb.profile_runs"] = static_cast<double>(r.attempted);
    add_record_qos(r.exact, *db);
    caches.add_counts(r.shared);
    if (sink != nullptr) {
      // Inside the runs: world construction and simulation steps.
      const auto runs_ns =
          static_cast<double>(sink->total_ns(Layer::kPerfdbRun));
      r.coverage = (covered_ns(*sink) - runs_ns) / runs_ns;
      sink->add(Layer::kPerfdbBuild, start, end);
      for (const auto& [name, value] : run_counts) r.exact[name] = value;
    }
    return r;
  }

 private:
  /// p50/p99 of the profiled response and transmit times, over records.
  static void add_record_qos(Counts& out, const perfdb::PerfDatabase& db) {
    viz::MultiSessionResult as_images;
    viz::SessionResult session;
    for (const tunable::ConfigPoint& config : db.configs()) {
      for (const perfdb::PerfRecord& rec : db.records(config)) {
        viz::VizClient::ImageStats s;
        s.avg_response = rec.quality.get("response_time");
        s.transmit_time = rec.quality.get("transmit_time");
        session.images.push_back(s);
      }
    }
    as_images.clients.push_back(std::move(session));
    add_image_qos(out, as_images);
    out.erase("makespan_s");  // records carry no end times
  }

  std::size_t threads_;
  viz::WorldSetup base_;
  Grid grid_;
  std::optional<std::uint64_t> decoded_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "paper_sessions", "shared_link_scale", "profile_grid"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "paper_sessions") return std::make_unique<PaperSessions>(options);
  if (name == "shared_link_scale") {
    return std::make_unique<SharedLinkScale>(options);
  }
  if (name == "profile_grid") return std::make_unique<ProfileGrid>(options);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace avf_bench
