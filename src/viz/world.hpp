// Experiment wiring for the Active Visualization application: the tunable
// application specification, a simulated two-host world (client + server on
// a LAN, each in its own sandbox), one session runner that drives a world's
// clients to completion (fixed and adaptive sessions are views of it), and
// the profiling hookup that populates the performance database by running
// the app in the virtual testbed (paper §5.2, §7.1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/stack.hpp"
#include "perfdb/database.hpp"
#include "perfdb/driver.hpp"
#include "sandbox/sandbox.hpp"
#include "sandbox/schedule.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tunable/app_spec.hpp"
#include "util/hash.hpp"
#include "viz/client.hpp"
#include "viz/server.hpp"

namespace avf::viz {

/// The tunability specification of Active Visualization (paper Figure 2):
/// control parameters dR in {80,160,320}, c in {none,lzw,bwt}, l in {3,4};
/// QoS metrics transmit_time / response_time (lower better) and resolution
/// (higher better); resource axes cpu_share and net_bps; one task module
/// and the notify-server-compression transition.
const tunable::AppSpec& viz_app_spec();

/// The pyramid of the deterministic synthetic image (size, seed) -- one of
/// the "images stored in the server" -- together with its content hash
/// (the tile-store key prefix), memoized process-wide.  Both are computed
/// once per (size, seed, levels), so profiling sweeps building thousands of
/// worlds never redecompose or rehash the same image; the image itself is
/// not kept.
struct PyramidEntry {
  std::shared_ptr<const wavelet::Pyramid> pyramid;
  util::Hash128 content_hash;
};
PyramidEntry cached_pyramid_entry(int size, std::uint64_t seed, int levels);

struct WorldSetup {
  /// Concurrent viz clients, each with its own channel over the one shared
  /// link, its own sandbox on the client host, and session id i+1.
  int client_count = 1;

  // Hosts (speeds in ops/s; the 450 Mops default = the paper's PII-450).
  double client_speed = 450e6;
  double server_speed = 450e6;

  // Link: 100 Mbps LAN with a small switch latency by default; experiments
  // vary the *available* bandwidth by resetting the link bandwidth.
  double link_bandwidth_bps = 12.5e6;
  double link_latency_s = 0.005;

  // Sandbox limits.
  double client_cpu_share = 1.0;
  double server_cpu_share = 1.0;
  std::optional<double> client_net_bps;
  std::optional<double> server_net_bps;
  sandbox::CpuEnforcement enforcement = sandbox::CpuEnforcement::kFluid;
  sandbox::NetEnforcement net_enforcement = sandbox::NetEnforcement::kFluid;
  double quantum = 0.005;

  // Image store.
  int image_size = 1024;
  int levels = 4;
  std::uint64_t image_seed = 2026;
  int image_count = 10;

  /// Cache pointers default to null (no caches); ServerCaches::attach
  /// points them at a bundle the caller owns.
  VizServer::Options server_options{};
  VizClient::Options client_options{};
};

/// The server-side caches of whoever runs a batch of worlds: a size layer
/// on its own store, and one TileStore shared by the region and chunk
/// layers.  Attached to every world of the batch (a parallel sweep
/// included: every layer is thread-safe), it lets the worlds reuse each
/// other's encode and compress work, and its counters belong to the batch.
/// It must outlive the worlds it is attached to.
struct ServerCaches {
  CompressedSizeCache size;
  TileStore store;
  RegionEncodeCache region{store};
  CompressedChunkCache chunk{store};

  void attach(WorldSetup& setup) {
    setup.server_options.size_cache = &size;
    setup.server_options.region_cache = &region;
    setup.server_options.chunk_cache = &chunk;
  }
};

/// Options of one adaptive client's run-time stack (monitor, scheduler
/// with its optional shared decision cache, controller); see
/// adapt/stack.hpp.
using AdaptiveOptions = adapt::AdaptationStack::Options;

/// One fully wired simulation universe: N client sandboxes, one server,
/// one shared link with one channel per client.  The single-argument
/// accessors address client 0 and keep the historical single-client API.
class VizWorld {
 public:
  explicit VizWorld(const WorldSetup& setup);

  sim::Simulator& simulator() { return sim_; }
  sim::Link& link() { return *link_; }
  const WorldSetup& setup() const { return setup_; }
  int client_count() const { return setup_.client_count; }

  /// The client-side channel endpoint (tests inject protocol traffic here).
  sim::Endpoint& client_endpoint(std::size_t i = 0) {
    return channels_[i]->a();
  }
  /// The server-side endpoint of client i's channel (one serve loop each).
  sim::Endpoint& server_endpoint(std::size_t i = 0) {
    return channels_[i]->b();
  }
  sandbox::Sandbox& client_box(std::size_t i = 0) { return *client_boxes_[i]; }
  sandbox::Sandbox& server_box() { return *server_box_; }
  VizServer& server() { return *server_; }

  /// Spawn one server serve() loop per client channel.
  void spawn_server_loops();

  /// Build client i in fixed-configuration mode (session id i+1).
  VizClient& make_client_at(std::size_t i,
                            const tunable::ConfigPoint& fixed_config);
  /// Build client i in adaptive mode (steering + monitoring attached).
  VizClient& make_client_at(std::size_t i, adapt::SteeringAgent& steering,
                            adapt::MonitoringAgent& monitor);
  /// Build client i in adaptive mode on a world-owned adaptation stack,
  /// configured for the setup's static resource view (client CPU share;
  /// link bandwidth capped by the client's net limit).
  VizClient& make_client_at(std::size_t i, const perfdb::PerfDatabase& db,
                            const adapt::PreferenceList& preferences,
                            const AdaptiveOptions& options);

  /// Single-client compatibility: build/get client 0.
  VizClient& make_client(const tunable::ConfigPoint& fixed_config) {
    return make_client_at(0, fixed_config);
  }
  VizClient& make_client(adapt::SteeringAgent& steering,
                         adapt::MonitoringAgent& monitor) {
    return make_client_at(0, steering, monitor);
  }

  VizClient& client(std::size_t i = 0) { return *clients_[i]; }
  /// Client i's world-owned adaptation stack, or null.
  adapt::AdaptationStack* stack(std::size_t i = 0) { return stacks_[i].get(); }

 private:
  WorldSetup setup_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  sim::Link* link_ = nullptr;
  std::vector<sim::Channel*> channels_;
  std::vector<std::unique_ptr<sandbox::Sandbox>> client_boxes_;
  std::unique_ptr<sandbox::Sandbox> server_box_;
  std::unique_ptr<VizServer> server_;
  // Declared before clients_: a client refers into its stack.
  std::vector<std::unique_ptr<adapt::AdaptationStack>> stacks_;
  std::vector<std::unique_ptr<VizClient>> clients_;
};

/// Timed resource variations applied during a session.
struct ResourceSchedule {
  /// Client CPU-share steps (paper Exp 2/3).  They step client 0's sandbox
  /// only: in a multi-client world every other client keeps its share.
  std::vector<sandbox::CapChange> client_cpu;
  /// Link ("network between server and client") bandwidth steps, bytes/s
  /// (paper Exp 1).
  std::vector<std::pair<sim::SimTime, double>> link_bandwidth;
};

struct SessionResult {
  std::vector<VizClient::ImageStats> images;
  std::vector<adapt::AdaptationController::AdaptationEvent> adaptations;
  tunable::ConfigPoint initial_config;
  double total_time = 0.0;
};

/// Aggregate result of a multi-client run: one SessionResult per client
/// (client i at index i), plus the simulated makespan.
struct MultiSessionResult {
  std::vector<SessionResult> clients;
  double total_time = 0.0;
};

/// The session runner: drive every (already built) client of `world` to
/// completion under `schedule`.  Each client downloads setup().image_count
/// images, shuts down its serve loop and stops its world-owned controller,
/// if any.  The world stays with the caller, whose simulator, link and
/// cache counters remain readable.
MultiSessionResult run_world(VizWorld& world,
                             const ResourceSchedule& schedule = {});

/// Run a non-adaptive session: one client downloading setup.image_count
/// images under `config` (run_multi_fixed_session with one client).
SessionResult run_fixed_session(const WorldSetup& setup,
                                const tunable::ConfigPoint& config,
                                const ResourceSchedule& schedule = {});

/// Bit-exact digest of a multi-client result: FNV-1a over the IEEE-754
/// patterns of every per-image stat in client order.  Two runs of the same
/// seeded world must produce equal fingerprints at any client count.
std::uint64_t result_fingerprint(const MultiSessionResult& result);

/// Bit-exact digest of the *decision traces* of a multi-client result:
/// per session, the initial configuration and every adaptation event
/// (time, from/to configs, preference index, estimate bit patterns).  This
/// is the byte-equality witness for the decision-cache benchmarks — two
/// runs whose adaptation behavior matches exactly hash equal even when
/// their image stats are not compared.
std::uint64_t adaptation_fingerprint(const MultiSessionResult& result);

/// Run `setup.client_count` non-adaptive clients concurrently, all under
/// `config`, each downloading `setup.image_count` images.
MultiSessionResult run_multi_fixed_session(
    const WorldSetup& setup, const tunable::ConfigPoint& config,
    const ResourceSchedule& schedule = {});

/// Run an adaptive session: initial automatic configuration from the
/// starting resource view, then monitor/schedule/steer against `db`
/// (run_multi_adaptive_session with one client).
SessionResult run_adaptive_session(const WorldSetup& setup,
                                   const perfdb::PerfDatabase& db,
                                   const adapt::PreferenceList& preferences,
                                   const ResourceSchedule& schedule = {},
                                   const AdaptiveOptions& options = {});

/// Run `setup.client_count` adaptive clients concurrently, each with its
/// own adaptation stack against the shared database — per-client
/// adaptation under genuine multi-session contention.  A decision cache in
/// `options.scheduler` is shared by every client's scheduler.
MultiSessionResult run_multi_adaptive_session(
    const WorldSetup& setup, const perfdb::PerfDatabase& db,
    const adapt::PreferenceList& preferences,
    const ResourceSchedule& schedule = {},
    const AdaptiveOptions& options = {});

/// RunFn for perfdb::ProfilingDriver: resource point = {cpu_share, net_bps};
/// each run builds a fresh world (one image download) and reports QoS.
perfdb::ProfilingDriver::RunFn make_viz_run_fn(WorldSetup base);

/// Profile the full configuration space of viz_app_spec() over `cpu_grid` x
/// `bw_grid` (with optional refinement rounds).  `threads` > 1 shards the
/// runs across a thread pool (0 = hardware_concurrency); the
/// resulting database is identical to the serial build.
perfdb::PerfDatabase build_viz_database(
    const WorldSetup& base, const std::vector<double>& cpu_grid,
    const std::vector<double>& bw_grid, int refinement_rounds = 0,
    std::size_t threads = 1);

/// Budgeted profiling of viz_app_spec(): at most `budget` cells of the
/// configs x grid product are simulated (seeded sample + tree-guided
/// rounds), the rest are regression-tree predictions flagged
/// Provenance::kPredicted.  Same seed + budget => byte-identical database
/// at any thread count; budget >= the full product degenerates to
/// build_viz_database(..., 0, threads) byte-for-byte.
perfdb::PerfDatabase build_viz_database_adaptive(
    const WorldSetup& base, const std::vector<double>& cpu_grid,
    const std::vector<double>& bw_grid, std::size_t budget,
    std::uint64_t seed = 1, std::size_t threads = 1,
    perfdb::AdaptiveModel* model_out = nullptr);

/// The database used by the figure benchmarks: profiled once per process
/// on the standard grid, over a ServerCaches the sweep owns and drops, and
/// never read from disk (a file cache would go stale silently whenever the
/// cost model changes).
const perfdb::PerfDatabase& standard_viz_database();

}  // namespace avf::viz
