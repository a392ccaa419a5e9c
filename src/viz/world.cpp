#include "viz/world.hpp"

#include <bit>
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

// The process-wide image/pyramid memos are shared by every world a
// parallel profiling sweep builds, so all map access is annotated against
// the memo mutex and checked by clang thread-safety analysis.  Returned
// references stay valid after the lock is dropped (std::map nodes are
// stable and entries are never erased).
//
// Construction happens *outside* the lock: synthesizing a 1024x1024 image
// or decomposing a pyramid is the expensive part, and holding the memo
// mutex across it serialized every worker of a parallel sweep behind one
// builder (an annotation-audit finding).  Two workers racing on the same
// key both build byte-identical values (deterministic constructors); the
// first emplace wins and the loser's copy is discarded.
class ImageMemo {
 public:
  const wavelet::Image& get(int size, std::uint64_t seed)
      AVF_EXCLUDES(mutex_) {
    auto key = std::make_pair(size, seed);
    {
      util::MutexLock lock(mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    wavelet::Image built = wavelet::Image::synthetic(size, size, seed);
    util::MutexLock lock(mutex_);
    return cache_.emplace(key, std::move(built)).first->second;
  }

 private:
  util::Mutex mutex_;
  std::map<std::pair<int, std::uint64_t>, wavelet::Image> cache_
      AVF_GUARDED_BY(mutex_);
};

class PyramidMemo {
 public:
  PyramidEntry get(const wavelet::Image& image, int size, std::uint64_t seed,
                   int levels) AVF_EXCLUDES(mutex_) {
    auto key = std::make_tuple(size, seed, levels);
    {
      util::MutexLock lock(mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    // Hash alongside the decomposition, outside the lock: the content hash
    // is as deterministic as the pyramid, so a racing loser's copy is
    // byte-identical and safely discarded.
    PyramidEntry built;
    built.pyramid = std::make_shared<const wavelet::Pyramid>(image, levels);
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

const wavelet::Image& cached_image(int size, std::uint64_t seed) {
  static ImageMemo memo;
  return memo.get(size, seed);
}

PyramidEntry cached_pyramid_entry(int size, std::uint64_t seed, int levels) {
  static PyramidMemo memo;
  // The image memo is consulted before the pyramid lock is taken, so the
  // two memo mutexes are never held together (no lock-order edge).
  const wavelet::Image& image = cached_image(size, seed);
  return memo.get(image, size, seed, levels);
}

std::shared_ptr<const wavelet::Pyramid> cached_pyramid(int size,
                                                       std::uint64_t seed,
                                                       int levels) {
  return cached_pyramid_entry(size, seed, levels).pyramid;
}

VizWorld::VizWorld(const WorldSetup& setup) : setup_(setup) {
  if (setup.client_count < 1) {
    throw std::invalid_argument("viz world: client_count must be >= 1");
  }
  net_ = std::make_unique<sim::Network>(sim_);
  sim::Host& client_host =
      net_->add_host("client", setup.client_speed, setup.memory_bytes);
  sim::Host& server_host =
      net_->add_host("server", setup.server_speed, setup.memory_bytes);
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
  for (int i = 0; i < setup.image_count; ++i) {
    if (setup.unique_image_contents > 0) {
      // Duplicate-content catalog: image i carries the content of seed
      // image i % unique_image_contents, but as its own freshly decomposed
      // Pyramid object — pointer identity cannot dedup it, only content
      // addressing can.  The memoized entry supplies the content hash
      // (identical content => identical hash) without rehashing per image.
      std::uint64_t seed =
          setup.image_seed +
          static_cast<std::uint64_t>(i % setup.unique_image_contents);
      PyramidEntry entry =
          cached_pyramid_entry(setup.image_size, seed, setup.levels);
      server_->add_image(static_cast<std::uint32_t>(i),
                         std::make_shared<const wavelet::Pyramid>(
                             cached_image(setup.image_size, seed),
                             setup.levels),
                         entry.content_hash);
    } else {
      // add_image would redo the wavelet decomposition (and content hash)
      // per world; reuse the process-wide pyramid cache instead.
      PyramidEntry entry = cached_pyramid_entry(
          setup.image_size, setup.image_seed + i, setup.levels);
      server_->add_image(static_cast<std::uint32_t>(i),
                         std::move(entry.pyramid), entry.content_hash);
    }
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

SessionResult run_fixed_session(const WorldSetup& setup,
                                const ConfigPoint& config,
                                const ResourceSchedule& schedule) {
  if (!viz_app_spec().space().valid(config)) {
    throw std::invalid_argument("invalid viz configuration: " + config.key());
  }
  VizWorld world(setup);
  VizClient& client = world.make_client(config);
  sim::Simulator& sim = world.simulator();
  sim.spawn(world.server().run());
  auto driver = [&]() -> sim::Task<> {
    co_await client.fetch_images(0, setup.image_count);
    co_await client.shutdown_server();
  };
  sim.spawn(driver());
  apply_resource_schedule(world, schedule);
  sim.run();

  SessionResult result;
  result.images = client.history();
  result.initial_config = config;
  result.total_time = sim.now();
  return result;
}

SessionResult run_adaptive_session(const WorldSetup& setup,
                                   const perfdb::PerfDatabase& db,
                                   const adapt::PreferenceList& preferences,
                                   const ResourceSchedule& schedule,
                                   const AdaptiveOptions& options) {
  VizWorld world(setup);
  sim::Simulator& sim = world.simulator();

  adapt::ResourceScheduler::Options scheduler_options = options.scheduler;
  scheduler_options.decision_cache = options.decision_cache;
  adapt::ResourceScheduler scheduler(db, preferences, scheduler_options);
  adapt::MonitoringAgent monitor(sim, viz_app_spec().resource_axes(),
                                 options.monitor);
  // Static view of initial resources (what the system-wide monitor would
  // report before the application has made any observations).
  std::vector<double> initial{
      setup.client_cpu_share,
      std::min(setup.link_bandwidth_bps,
               setup.client_net_bps.value_or(setup.link_bandwidth_bps))};
  auto decision = scheduler.select(initial);
  if (!decision) {
    throw std::runtime_error("adaptive session: empty performance database");
  }
  adapt::SteeringAgent steering(viz_app_spec(), decision->config);
  adapt::AdaptationController controller(sim, scheduler, monitor, steering,
                                         options.controller);
  controller.configure(initial);
  controller.start();

  VizClient& client = world.make_client(steering, monitor);
  sim.spawn(world.server().run());
  auto driver = [&]() -> sim::Task<> {
    co_await client.fetch_images(0, setup.image_count);
    co_await client.shutdown_server();
    controller.stop();
  };
  sim.spawn(driver());
  apply_resource_schedule(world, schedule);
  sim.run();

  SessionResult result;
  result.images = client.history();
  result.adaptations = controller.adaptations();
  result.initial_config = decision->config;
  result.total_time = sim.now();
  return result;
}


std::uint64_t result_fingerprint(const MultiSessionResult& result) {
  std::uint64_t h = util::kFnv1aOffset;
  auto mix_u64 = [&h](std::uint64_t v) {
    h = util::fnv1a64(&v, sizeof(v), h);
  };
  auto mix_double = [&mix_u64](double v) {
    mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  for (const SessionResult& session : result.clients) {
    mix_u64(session.images.size());
    for (const VizClient::ImageStats& s : session.images) {
      mix_u64(s.image_id);
      mix_u64(static_cast<std::uint64_t>(s.rounds));
      mix_u64(static_cast<std::uint64_t>(s.resolution));
      mix_u64(s.wire_bytes);
      mix_u64(s.payload_hash);
      mix_double(s.start_time);
      mix_double(s.end_time);
      mix_double(s.transmit_time);
      mix_double(s.avg_response);
      mix_double(s.max_response);
    }
  }
  mix_double(result.total_time);
  return h;
}

std::uint64_t adaptation_fingerprint(const MultiSessionResult& result) {
  std::uint64_t h = util::kFnv1aOffset;
  auto mix_bytes = [&h](const void* data, std::size_t size) {
    h = util::fnv1a64(data, size, h);
  };
  auto mix_u64 = [&mix_bytes](std::uint64_t v) { mix_bytes(&v, sizeof(v)); };
  auto mix_double = [&mix_u64](double v) {
    mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    mix_u64(s.size());
  };
  for (const SessionResult& session : result.clients) {
    mix_str(session.initial_config.key());
    mix_u64(session.adaptations.size());
    for (const auto& event : session.adaptations) {
      mix_double(event.time);
      mix_str(event.from.key());
      mix_str(event.to.key());
      mix_u64(event.preference_index);
      mix_u64(event.estimates.size());
      for (double e : event.estimates) mix_double(e);
    }
  }
  return h;
}

MultiSessionResult run_multi_fixed_session(const WorldSetup& setup,
                                           const ConfigPoint& config,
                                           const ResourceSchedule& schedule) {
  if (!viz_app_spec().space().valid(config)) {
    throw std::invalid_argument("invalid viz configuration: " + config.key());
  }
  VizWorld world(setup);
  sim::Simulator& sim = world.simulator();
  for (int i = 0; i < setup.client_count; ++i) {
    world.make_client_at(static_cast<std::size_t>(i), config);
  }
  world.spawn_server_loops();
  // Each client downloads its images then shuts down its own serve loop;
  // the simulation drains once the last loop has exited.
  auto driver = [](VizClient* client, int images) -> sim::Task<> {
    co_await client->fetch_images(0, images);
    co_await client->shutdown_server();
  };
  for (int i = 0; i < setup.client_count; ++i) {
    sim.spawn(driver(&world.client(static_cast<std::size_t>(i)),
                     setup.image_count));
  }
  apply_resource_schedule(world, schedule);
  sim.run();

  MultiSessionResult result;
  result.total_time = sim.now();
  for (int i = 0; i < setup.client_count; ++i) {
    SessionResult session;
    session.images = world.client(static_cast<std::size_t>(i)).history();
    session.initial_config = config;
    session.total_time = sim.now();
    result.clients.push_back(std::move(session));
  }
  return result;
}

MultiSessionResult run_multi_adaptive_session(
    const WorldSetup& setup, const perfdb::PerfDatabase& db,
    const adapt::PreferenceList& preferences,
    const ResourceSchedule& schedule, const AdaptiveOptions& options) {
  VizWorld world(setup);
  sim::Simulator& sim = world.simulator();

  std::vector<double> initial{
      setup.client_cpu_share,
      std::min(setup.link_bandwidth_bps,
               setup.client_net_bps.value_or(setup.link_bandwidth_bps))};

  // One full adaptation stack per client: scheduler + monitor + steering +
  // controller.  They share the database and preferences but nothing else,
  // so each session adapts on its own observations.
  struct Stack {
    tunable::ConfigPoint initial_config;
    std::unique_ptr<adapt::ResourceScheduler> scheduler;
    std::unique_ptr<adapt::MonitoringAgent> monitor;
    std::unique_ptr<adapt::SteeringAgent> steering;
    std::unique_ptr<adapt::AdaptationController> controller;
  };
  // With a decision cache attached, every stack's scheduler shares the memo;
  // the first session to see a given estimate point evaluates the candidate
  // set for the whole fleet.
  adapt::ResourceScheduler::Options scheduler_options = options.scheduler;
  scheduler_options.decision_cache = options.decision_cache;
  std::vector<Stack> stacks;
  stacks.reserve(static_cast<std::size_t>(setup.client_count));
  for (int i = 0; i < setup.client_count; ++i) {
    Stack stack;
    stack.scheduler = std::make_unique<adapt::ResourceScheduler>(
        db, preferences, scheduler_options);
    stack.monitor = std::make_unique<adapt::MonitoringAgent>(
        sim, viz_app_spec().resource_axes(), options.monitor);
    auto decision = stack.scheduler->select(initial);
    if (!decision) {
      throw std::runtime_error(
          "adaptive session: empty performance database");
    }
    stack.initial_config = decision->config;
    stack.steering = std::make_unique<adapt::SteeringAgent>(
        viz_app_spec(), decision->config);
    stack.controller = std::make_unique<adapt::AdaptationController>(
        sim, *stack.scheduler, *stack.monitor, *stack.steering,
        options.controller);
    stack.controller->configure(initial);
    stack.controller->start();
    world.make_client_at(static_cast<std::size_t>(i), *stack.steering,
                         *stack.monitor);
    stacks.push_back(std::move(stack));
  }
  world.spawn_server_loops();
  auto driver = [](VizClient* client, adapt::AdaptationController* controller,
                   int images) -> sim::Task<> {
    co_await client->fetch_images(0, images);
    co_await client->shutdown_server();
    controller->stop();
  };
  for (int i = 0; i < setup.client_count; ++i) {
    sim.spawn(driver(&world.client(static_cast<std::size_t>(i)),
                     stacks[static_cast<std::size_t>(i)].controller.get(),
                     setup.image_count));
  }
  apply_resource_schedule(world, schedule);
  sim.run();

  MultiSessionResult result;
  result.total_time = sim.now();
  for (int i = 0; i < setup.client_count; ++i) {
    const Stack& stack = stacks[static_cast<std::size_t>(i)];
    SessionResult session;
    session.images = world.client(static_cast<std::size_t>(i)).history();
    session.adaptations = stack.controller->adaptations();
    session.initial_config = stack.initial_config;
    session.total_time = sim.now();
    result.clients.push_back(std::move(session));
  }
  return result;
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
    return build_viz_database(WorldSetup{}, cpu_grid, bw_grid,
                              /*refinement_rounds=*/0, /*threads=*/4);
  }();
  return db;
}

}  // namespace avf::viz
