#include "viz/world.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/annotations.hpp"
#include "util/fmt.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace avf::viz {

using tunable::ConfigPoint;
using tunable::Direction;

const tunable::AppSpec& viz_app_spec() {
  static const tunable::AppSpec spec = [] {
    tunable::AppSpec s("active-visualization");
    s.space().add_parameter("dR", {80, 160, 320});
    s.space().add_parameter("c", {0, 1, 2});  // none, lzw (A), bwt (B)
    s.space().add_parameter("l", {3, 4});
    s.metrics().add("transmit_time", Direction::kLowerBetter);
    s.metrics().add("response_time", Direction::kLowerBetter);
    s.metrics().add("resolution", Direction::kHigherBetter);
    s.add_resource_axis("cpu_share");
    s.add_resource_axis("net_bps");
    s.add_task(tunable::TaskSpec{
        .name = "module1",
        .params = {"l", "dR", "c"},
        .resources = {"client.CPU", "client.network"},
        .metrics = {"transmit_time", "response_time", "resolution"},
        .guard = nullptr,
    });
    s.add_transition(tunable::TransitionSpec{
        .name = "notify-server-compression",
        .guard = nullptr,  // always permitted
        .handler =
            [](const ConfigPoint& from, const ConfigPoint& to) {
              if (from.get("c") != to.get("c")) {
                util::log_debug("viz.transition", 0.0,
                                "compression {} -> {}", from.get("c"),
                                to.get("c"));
              }
            },
    });
    return s;
  }();
  return spec;
}

namespace {

// The process-wide pyramid memo is shared by every world a parallel
// profiling sweep builds, so all map access is annotated against the memo
// mutex and checked by clang thread-safety analysis.  On a miss the image
// is synthesized, decomposed and dropped: only the pyramid and its content
// hash are kept.
//
// Construction happens *outside* the lock, so the workers of a parallel
// sweep do not wait behind one another's 1024x1024 synthesis and
// decomposition.  Two workers racing on the same key both build
// byte-identical values (deterministic constructors); the first emplace
// wins and the loser's copy is discarded.
class PyramidMemo {
 public:
  PyramidEntry get(int size, std::uint64_t seed, int levels)
      AVF_EXCLUDES(mutex_) {
    auto key = std::make_tuple(size, seed, levels);
    {
      util::MutexLock lock(mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    PyramidEntry built;
    built.pyramid = std::make_shared<const wavelet::Pyramid>(
        wavelet::Image::synthetic(size, size, seed), levels);
    built.content_hash = wavelet::pyramid_content_hash(*built.pyramid);
    util::MutexLock lock(mutex_);
    return cache_.emplace(key, std::move(built)).first->second;
  }

 private:
  util::Mutex mutex_;
  std::map<std::tuple<int, std::uint64_t, int>, PyramidEntry> cache_
      AVF_GUARDED_BY(mutex_);
};

}  // namespace

PyramidEntry cached_pyramid_entry(int size, std::uint64_t seed, int levels) {
  // avf-srclint: allow(src.mutable-static memoizes a pure function of (size, seed, levels) under a lock, so no trace can tell; every benchmark world shares it)
  static PyramidMemo memo;
  return memo.get(size, seed, levels);
}

VizWorld::VizWorld(const WorldSetup& setup) : setup_(setup) {
  if (setup.client_count < 1) {
    throw std::invalid_argument("viz world: client_count must be >= 1");
  }
  net_ = std::make_unique<sim::Network>(sim_);
  sim::Host& client_host = net_->add_host("client", setup.client_speed);
  sim::Host& server_host = net_->add_host("server", setup.server_speed);
  link_ = &net_->connect(client_host, server_host, setup.link_bandwidth_bps,
                         setup.link_latency_s);

  sandbox::Sandbox::Options client_opts;
  client_opts.cpu_share = setup.client_cpu_share;
  client_opts.net_bandwidth_bps = setup.client_net_bps;
  client_opts.cpu_enforcement = setup.enforcement;
  client_opts.net_enforcement = setup.net_enforcement;
  client_opts.quantum = setup.quantum;

  sandbox::Sandbox::Options server_opts;
  server_opts.cpu_share = setup.server_cpu_share;
  server_opts.net_bandwidth_bps = setup.server_net_bps;
  server_opts.cpu_enforcement = setup.enforcement;
  server_opts.net_enforcement = setup.net_enforcement;
  server_opts.quantum = setup.quantum;
  server_box_ = std::make_unique<sandbox::Sandbox>(server_host, "viz-server",
                                                   server_opts);

  // One channel over the shared link per client; every channel's b() side
  // belongs to the server sandbox.  Client 0 keeps the historical sandbox
  // name so single-client logs and traces are unchanged.
  channels_.reserve(static_cast<std::size_t>(setup.client_count));
  client_boxes_.reserve(static_cast<std::size_t>(setup.client_count));
  stacks_.resize(static_cast<std::size_t>(setup.client_count));
  clients_.resize(static_cast<std::size_t>(setup.client_count));
  for (int i = 0; i < setup.client_count; ++i) {
    sim::Channel& channel = net_->open_channel(*link_);
    channels_.push_back(&channel);
    std::string name =
        i == 0 ? "viz-client" : util::format("viz-client-{}", i);
    client_boxes_.push_back(std::make_unique<sandbox::Sandbox>(
        client_host, name, client_opts));
    client_boxes_.back()->attach_endpoint(channel.a());
    server_box_->attach_endpoint(channel.b());
  }

  server_ = std::make_unique<VizServer>(*server_box_, channels_[0]->b(),
                                        setup.server_options);
  // add_image would redo the wavelet decomposition (and content hash) per
  // world; reuse the process-wide pyramid memo instead.
  for (int i = 0; i < setup.image_count; ++i) {
    PyramidEntry entry = cached_pyramid_entry(
        setup.image_size, setup.image_seed + i, setup.levels);
    server_->add_image(static_cast<std::uint32_t>(i),
                       std::move(entry.pyramid), entry.content_hash);
  }
}

void VizWorld::spawn_server_loops() {
  for (sim::Channel* channel : channels_) {
    sim_.spawn(server_->serve(channel->b()));
  }
}

VizClient& VizWorld::make_client_at(std::size_t i,
                                    const ConfigPoint& fixed_config) {
  VizClient::Options options = setup_.client_options;
  options.session_id = static_cast<std::uint32_t>(i) + 1;
  clients_[i] = std::make_unique<VizClient>(
      *client_boxes_[i], channels_[i]->a(), nullptr, nullptr, options);
  clients_[i]->set_fixed_config(fixed_config);
  return *clients_[i];
}

VizClient& VizWorld::make_client_at(std::size_t i,
                                    adapt::SteeringAgent& steering,
                                    adapt::MonitoringAgent& monitor) {
  VizClient::Options options = setup_.client_options;
  options.session_id = static_cast<std::uint32_t>(i) + 1;
  clients_[i] = std::make_unique<VizClient>(
      *client_boxes_[i], channels_[i]->a(), &steering, &monitor, options);
  return *clients_[i];
}

VizClient& VizWorld::make_client_at(std::size_t i,
                                    const perfdb::PerfDatabase& db,
                                    const adapt::PreferenceList& preferences,
                                    const AdaptiveOptions& options) {
  // Static view of initial resources (what the system-wide monitor would
  // report before the application has made any observations).
  const std::vector<double> initial{
      setup_.client_cpu_share,
      std::min(setup_.link_bandwidth_bps,
               setup_.client_net_bps.value_or(setup_.link_bandwidth_bps))};
  stacks_[i] = std::make_unique<adapt::AdaptationStack>(
      sim_, viz_app_spec(), db, preferences, initial, options);
  return make_client_at(i, stacks_[i]->steering, stacks_[i]->monitor);
}

namespace {

void apply_resource_schedule(VizWorld& world, const ResourceSchedule& schedule) {
  apply_schedule(world.simulator(), world.client_box(), schedule.client_cpu);
  for (const auto& [at, bps] : schedule.link_bandwidth) {
    sim::Link* link = &world.link();
    if (at <= world.simulator().now()) {
      link->set_bandwidth(bps);
    } else {
      world.simulator().schedule_at(at,
                                    [link, b = bps] { link->set_bandwidth(b); });
    }
  }
}

tunable::QosVector qos_of(const std::vector<VizClient::ImageStats>& images) {
  tunable::QosVector out;
  if (images.empty()) return out;
  double transmit = 0.0, response = 0.0;
  for (const auto& s : images) {
    transmit += s.transmit_time;
    response += s.avg_response;
  }
  out.set("transmit_time", transmit / static_cast<double>(images.size()));
  out.set("response_time", response / static_cast<double>(images.size()));
  out.set("resolution", images.back().resolution);
  return out;
}

}  // namespace

MultiSessionResult run_world(VizWorld& world,
                             const ResourceSchedule& schedule) {
  sim::Simulator& sim = world.simulator();
  const auto n = static_cast<std::size_t>(world.client_count());
  world.spawn_server_loops();
  // The simulation drains once the last serve loop has exited and no
  // controller tick is left.
  auto driver = [](VizClient* client, adapt::AdaptationController* controller,
                   int images) -> sim::Task<> {
    co_await client->fetch_images(0, images);
    co_await client->shutdown_server();
    if (controller != nullptr) controller->stop();
  };
  MultiSessionResult result;
  result.clients.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    adapt::AdaptationStack* stack = world.stack(i);
    result.clients[i].initial_config = world.client(i).config();
    sim.spawn(driver(&world.client(i),
                     stack != nullptr ? &stack->controller : nullptr,
                     world.setup().image_count));
  }
  apply_resource_schedule(world, schedule);
  sim.run();

  result.total_time = sim.now();
  for (std::size_t i = 0; i < n; ++i) {
    SessionResult& session = result.clients[i];
    session.images = world.client(i).history();
    if (const adapt::AdaptationStack* stack = world.stack(i)) {
      session.adaptations = stack->controller.adaptations();
    }
    session.total_time = sim.now();
  }
  return result;
}

SessionResult run_fixed_session(const WorldSetup& setup,
                                const ConfigPoint& config,
                                const ResourceSchedule& schedule) {
  WorldSetup single = setup;
  single.client_count = 1;
  return std::move(
      run_multi_fixed_session(single, config, schedule).clients.front());
}

SessionResult run_adaptive_session(const WorldSetup& setup,
                                   const perfdb::PerfDatabase& db,
                                   const adapt::PreferenceList& preferences,
                                   const ResourceSchedule& schedule,
                                   const AdaptiveOptions& options) {
  WorldSetup single = setup;
  single.client_count = 1;
  return std::move(run_multi_adaptive_session(single, db, preferences,
                                              schedule, options)
                       .clients.front());
}

std::uint64_t result_fingerprint(const MultiSessionResult& result) {
  util::Fnv1aFold h;
  for (const SessionResult& session : result.clients) {
    h.u64(session.images.size());
    for (const VizClient::ImageStats& s : session.images) {
      h.u64(s.image_id)
          .u64(static_cast<std::uint64_t>(s.rounds))
          .u64(static_cast<std::uint64_t>(s.resolution))
          .u64(s.wire_bytes)
          .u64(s.payload_hash)
          .f64(s.start_time)
          .f64(s.end_time)
          .f64(s.transmit_time)
          .f64(s.avg_response)
          .f64(s.max_response);
    }
  }
  return h.f64(result.total_time).h;
}

std::uint64_t adaptation_fingerprint(const MultiSessionResult& result) {
  util::Fnv1aFold h;
  // A string folds as its bytes, then its length.
  auto fold_str = [&h](const std::string& s) {
    h.bytes(s.data(), s.size()).u64(s.size());
  };
  for (const SessionResult& session : result.clients) {
    fold_str(session.initial_config.key());
    h.u64(session.adaptations.size());
    for (const auto& event : session.adaptations) {
      h.f64(event.time);
      fold_str(event.from.key());
      fold_str(event.to.key());
      h.u64(event.preference_index).u64(event.estimates.size());
      for (double e : event.estimates) h.f64(e);
    }
  }
  return h.h;
}

MultiSessionResult run_multi_fixed_session(const WorldSetup& setup,
                                           const ConfigPoint& config,
                                           const ResourceSchedule& schedule) {
  if (!viz_app_spec().space().valid(config)) {
    throw std::invalid_argument("invalid viz configuration: " + config.key());
  }
  VizWorld world(setup);
  for (int i = 0; i < setup.client_count; ++i) {
    world.make_client_at(static_cast<std::size_t>(i), config);
  }
  return run_world(world, schedule);
}

MultiSessionResult run_multi_adaptive_session(
    const WorldSetup& setup, const perfdb::PerfDatabase& db,
    const adapt::PreferenceList& preferences,
    const ResourceSchedule& schedule, const AdaptiveOptions& options) {
  // One stack per client, sharing the database, the preferences and any
  // decision cache but nothing else, so each session adapts on its own
  // observations.
  VizWorld world(setup);
  for (int i = 0; i < setup.client_count; ++i) {
    world.make_client_at(static_cast<std::size_t>(i), db, preferences,
                         options);
  }
  return run_world(world, schedule);
}

perfdb::ProfilingDriver::RunFn make_viz_run_fn(WorldSetup base) {
  base.image_count = 1;
  return [base](const ConfigPoint& config,
                const perfdb::ResourcePoint& at) -> tunable::QosVector {
    WorldSetup setup = base;
    setup.client_cpu_share = at[0];
    setup.link_bandwidth_bps = at[1];
    SessionResult result = run_fixed_session(setup, config);
    return qos_of(result.images);
  };
}

perfdb::PerfDatabase build_viz_database(const WorldSetup& base,
                                        const std::vector<double>& cpu_grid,
                                        const std::vector<double>& bw_grid,
                                        int refinement_rounds,
                                        std::size_t threads) {
  perfdb::ProfilingDriver::Options options;
  options.refinement_rounds = refinement_rounds;
  options.threads = threads;
  // Each run builds a fresh world, so one RunFn is safe to share across
  // workers; the driver's deterministic assembly makes the database
  // identical at any thread count.
  perfdb::ProfilingDriver driver(make_viz_run_fn(base), options);
  return driver.profile(viz_app_spec(), {cpu_grid, bw_grid});
}

perfdb::PerfDatabase build_viz_database_adaptive(
    const WorldSetup& base, const std::vector<double>& cpu_grid,
    const std::vector<double>& bw_grid, std::size_t budget,
    std::uint64_t seed, std::size_t threads,
    perfdb::AdaptiveModel* model_out) {
  perfdb::ProfilingDriver::Options options;
  options.threads = threads;
  perfdb::ProfilingDriver driver(make_viz_run_fn(base), options);
  perfdb::ProfilingDriver::AdaptiveOptions adaptive;
  adaptive.budget = budget;
  adaptive.seed = seed;
  // Smaller rounds refit the trees more often; on the steep viz response
  // surface that roughly halves the worst-case prediction error at a 25%
  // budget (see bench/micro_adaptive) for a negligible fitting cost.
  adaptive.round_size = 8;
  return driver.profile_adaptive(viz_app_spec(), {cpu_grid, bw_grid},
                                 adaptive, model_out);
}

const perfdb::PerfDatabase& standard_viz_database() {
  static const perfdb::PerfDatabase db = [] {
    util::log_info("viz.perfdb", 0.0, "profiling the configuration space");
    const std::vector<double> cpu_grid{0.1, 0.2, 0.4, 0.6, 0.9, 1.0};
    const std::vector<double> bw_grid{25e3,  50e3,  100e3,
                                      250e3, 500e3, 1000e3};
    // The database is byte-identical at any thread count.
    ServerCaches caches;
    WorldSetup setup;
    caches.attach(setup);
    return build_viz_database(setup, cpu_grid, bw_grid,
                              /*refinement_rounds=*/0, /*threads=*/4);
  }();
  return db;
}

}  // namespace avf::viz
