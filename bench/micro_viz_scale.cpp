// Micro-benchmark: multi-client Active Visualization scaling.
//
// Sweeps 1 -> 128 concurrent clients against one multi-session server, then
// scale-sweeps 1k and 10k sessions, and verifies the contracts of the scale
// work:
//
//  1. Determinism: for a fixed seed every client count — 10k included —
//     yields a bit-identical golden trace (run twice, compare
//     result_fingerprint).
//  2. Cache transparency + payoff: the shared encode/compression caches
//     change no payload byte (per-image payload_hash equality vs the
//     no-cache baseline at 64 clients) while cutting host wall time by
//     >= 4x (AVF_VIZ_MIN_SPEEDUP overrides; 0 disables the gate).
//  3. Incremental fluid sharing: the link's bandwidth reallocation skips
//     flows whose rate did not change — counter-asserted, not assumed.
//  4. Sublinear reallocation at scale: wall-clock per client at 1k/10k stays
//     within AVF_VIZ_MAX_WALL_RATIO (default 4x; 0 disables) of the
//     128-client cost, full fluid rebuilds stay flat in N (a water-filling
//     pass per arrival/departure was ~N^2/2), and the incremental engine is
//     counter-proven to have absorbed the arrivals and departures.
//  5. Churn soak: staggered session waves arriving/departing under a
//     testkit link-flap fault schedule replay bit-identically.
//
// AVF_VIZ_SCALE_CLIENTS selects the scale sweep counts (comma-separated;
// default "1024,10000"; empty/0 disables — CI's perf-smoke job runs 1024
// and leaves 10000 to the nightly/manual lane).
//
// Per-case JSON (bench_results/BENCH_micro_viz_scale.json): wall_ns,
// simulated events, cache hit/miss counters, mean per-client response
// time, and the fluid reallocation counters for the link and the two CPUs.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "testkit/fault_injector.hpp"
#include "viz/caches.hpp"
#include "viz/world.hpp"

namespace {

using namespace avf;
using viz::CompressedChunkCache;
using viz::CompressedSizeCache;
using viz::MultiSessionResult;
using viz::RegionEncodeCache;
using viz::TileStore;
using viz::VizClient;
using viz::VizWorld;
using viz::WorldSetup;

WorldSetup scale_setup(int clients) {
  WorldSetup setup;
  setup.client_count = clients;
  setup.image_size = 256;
  setup.levels = 3;
  setup.image_count = 2;
  // Cap every endpoint well below the link so the aggregate stays
  // under-subscribed at 128 clients (128 * cap = 0.5 * capacity per
  // direction): every flow runs at its cap, so arrivals and departures
  // leave everyone else alone (fast_reallocs).  Beyond 256 clients the
  // link over-subscribes and flows share the fair level instead.
  setup.client_net_bps = setup.link_bandwidth_bps / 256.0;
  setup.server_net_bps = setup.link_bandwidth_bps / 256.0;
  return setup;
}

struct FluidCounters {
  std::uint64_t full_reallocs = 0;
  std::uint64_t fast_reallocs = 0;
  std::uint64_t rate_rescales = 0;
  std::uint64_t rate_keeps = 0;
  std::uint64_t flows_skipped = 0;
  std::uint64_t sparse_events = 0;
  std::uint64_t boundary_crossings = 0;
  std::uint64_t level_updates = 0;
  std::uint64_t noop_slot_reallocs = 0;

  void absorb(const sim::FluidResource& r) {
    full_reallocs += r.full_reallocs();
    fast_reallocs += r.fast_reallocs();
    rate_rescales += r.rate_rescales();
    rate_keeps += r.rate_keeps();
    flows_skipped += r.flows_skipped();
    sparse_events += r.sparse_events();
    boundary_crossings += r.boundary_crossings();
    level_updates += r.level_updates();
    noop_slot_reallocs += r.noop_slot_reallocs();
  }
};

struct RunStats {
  MultiSessionResult result;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double avg_response = 0.0;  // mean over clients and images
  FluidCounters fluid;        // link, forward + backward
  FluidCounters cpu;          // client host + server host CPUs
};

/// Session arrival shape of the churn lane: `waves` groups started
/// `wave_gap` seconds apart under a testkit fault schedule against the
/// shared link.
struct ChurnPlan {
  int waves = 1;
  double wave_gap = 0.0;
  testkit::FaultSchedule faults;
  std::uint64_t fault_seed = 1;
};

/// The churn lane's own runner: staggered arrivals need a delayed start per
/// driver, which the library runner deliberately does not offer.
MultiSessionResult run_churn(VizWorld& world, const ChurnPlan& plan) {
  sim::Simulator& sim = world.simulator();
  world.spawn_server_loops();
  testkit::FaultInjector injector({.sim = &sim, .link = &world.link()},
                                  plan.fault_seed);
  injector.arm(plan.faults);

  auto driver = [](sim::Simulator* s, VizClient* client, int images,
                   double start_at) -> sim::Task<> {
    if (start_at > 0.0) co_await s->delay(start_at);
    co_await client->fetch_images(0, images);
    co_await client->shutdown_server();
  };
  const int n = world.client_count();
  const int per_wave = (n + plan.waves - 1) / plan.waves;
  for (int i = 0; i < n; ++i) {
    sim.spawn(driver(&sim, &world.client(static_cast<std::size_t>(i)),
                     world.setup().image_count,
                     plan.wave_gap * (i / per_wave)));
  }
  sim.run();

  MultiSessionResult result;
  result.total_time = sim.now();
  for (int i = 0; i < n; ++i) {
    const VizClient& client = world.client(static_cast<std::size_t>(i));
    viz::SessionResult session;
    session.images = client.history();
    session.initial_config = client.config();
    session.total_time = sim.now();
    result.clients.push_back(std::move(session));
  }
  return result;
}

/// One full multi-client run in a caller-owned world, so the case can read
/// simulator, link and CPU counters afterwards.  `churn` selects the churn
/// lane's runner; every other lane uses viz::run_world.
RunStats run_case(const WorldSetup& setup, const tunable::ConfigPoint& cfg,
                  const ChurnPlan* churn = nullptr) {
  auto start = std::chrono::steady_clock::now();

  VizWorld world(setup);
  for (int i = 0; i < setup.client_count; ++i) {
    world.make_client_at(static_cast<std::size_t>(i), cfg);
  }
  RunStats stats;
  stats.result =
      churn != nullptr ? run_churn(world, *churn) : viz::run_world(world);

  auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  stats.events = world.simulator().events_processed();
  double response_sum = 0.0;
  std::size_t response_n = 0;
  for (const viz::SessionResult& session : stats.result.clients) {
    for (const auto& image : session.images) {
      response_sum += image.avg_response;
      ++response_n;
    }
  }
  stats.avg_response = response_n ? response_sum / response_n : 0.0;
  stats.fluid.absorb(world.link().forward());
  stats.fluid.absorb(world.link().backward());
  stats.cpu.absorb(world.client_box(0).host().cpu());
  stats.cpu.absorb(world.server_box().host().cpu());
  return stats;
}

bool payloads_match(const MultiSessionResult& a, const MultiSessionResult& b) {
  if (a.clients.size() != b.clients.size()) return false;
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ia = a.clients[i].images;
    const auto& ib = b.clients[i].images;
    if (ia.size() != ib.size()) return false;
    for (std::size_t j = 0; j < ia.size(); ++j) {
      if (ia[j].payload_hash != ib[j].payload_hash) return false;
      if (ia[j].wire_bytes != ib[j].wire_bytes) return false;
    }
  }
  return true;
}

double env_or(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) return std::atof(env);
  return fallback;
}

std::vector<int> scale_counts_from_env() {
  std::vector<int> counts = {1024, 10000};
  const char* env = std::getenv("AVF_VIZ_SCALE_CLIENTS");
  if (env == nullptr) return counts;
  counts.clear();
  std::string spec(env);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int n = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (n > 0) counts.push_back(n);
    pos = comma + 1;
  }
  return counts;
}

bench::JsonBenchCase make_case(const std::string& label, int clients,
                               const RunStats& run, bool deterministic) {
  bench::JsonBenchCase c;
  c.label = label;
  c.wall_ns = run.wall_ms * 1e6;
  c.extra["clients"] = clients;
  c.extra["events"] = static_cast<double>(run.events);
  c.extra["sim_time_s"] = run.result.total_time;
  c.extra["avg_response_s"] = run.avg_response;
  c.extra["deterministic"] = deterministic ? 1.0 : 0.0;
  c.extra["wall_ms_per_client"] = run.wall_ms / clients;
  c.extra["fluid_full_reallocs"] = static_cast<double>(run.fluid.full_reallocs);
  c.extra["fluid_fast_reallocs"] = static_cast<double>(run.fluid.fast_reallocs);
  c.extra["fluid_rate_rescales"] = static_cast<double>(run.fluid.rate_rescales);
  c.extra["fluid_rate_keeps"] = static_cast<double>(run.fluid.rate_keeps);
  c.extra["fluid_flows_skipped"] =
      static_cast<double>(run.fluid.flows_skipped);
  c.extra["fluid_sparse_events"] =
      static_cast<double>(run.fluid.sparse_events);
  c.extra["fluid_boundary_crossings"] =
      static_cast<double>(run.fluid.boundary_crossings);
  c.extra["fluid_level_updates"] =
      static_cast<double>(run.fluid.level_updates);
  c.extra["fluid_noop_slot_reallocs"] =
      static_cast<double>(run.fluid.noop_slot_reallocs);
  c.extra["cpu_full_reallocs"] = static_cast<double>(run.cpu.full_reallocs);
  c.extra["cpu_sparse_events"] = static_cast<double>(run.cpu.sparse_events);
  return c;
}

}  // namespace

int main() {
  const tunable::ConfigPoint cfg = bench::viz_config(160, 1, 3);
  const std::vector<int> client_counts = {1, 4, 16, 64, 128};
  constexpr int kGateClients = 64;
  constexpr int kReferenceClients = 128;  // wall-per-client baseline

  std::printf("micro_viz_scale: 256px images x2, dR=160 lzw l=3\n");
  std::printf("%-22s %12s %12s %10s %10s %10s\n", "case", "wall_ms",
              "events", "rgn_hit%", "skips", "resp_ms");

  bool ok = true;
  std::vector<bench::JsonBenchCase> cases;
  double cached_64_ms = 0.0;
  double wall_per_client_128 = 0.0;
  MultiSessionResult cached_64;

  for (int n : client_counts) {
    // Fresh local caches per run: counters attributable, no cross-run
    // reuse inflating the numbers.
    CompressedSizeCache size_cache;
    TileStore store;  // one content-addressed store behind both layers
    RegionEncodeCache region_cache(store);
    CompressedChunkCache chunk_cache(store);
    WorldSetup setup = scale_setup(n);
    setup.server_options.size_cache = &size_cache;
    setup.server_options.region_cache = &region_cache;
    setup.server_options.chunk_cache = &chunk_cache;

    RunStats run = run_case(setup, cfg);
    std::uint64_t fp = viz::result_fingerprint(run.result);

    // Determinism: the identical world replayed must fingerprint equal.
    RunStats replay = run_case(setup, cfg);
    bool deterministic = viz::result_fingerprint(replay.result) == fp;
    ok = ok && deterministic;

    if (n == kGateClients) {
      cached_64_ms = run.wall_ms;
      cached_64 = run.result;
    }
    if (n == kReferenceClients) {
      wall_per_client_128 = run.wall_ms / n;
    }

    double region_total =
        static_cast<double>(region_cache.hits() + region_cache.misses());
    double hit_pct =
        region_total > 0.0 ? 100.0 * region_cache.hits() / region_total : 0.0;
    std::printf("%-22s %12.2f %12" PRIu64 " %9.1f%% %10" PRIu64 " %10.2f %s\n",
                ("cached/clients=" + std::to_string(n)).c_str(), run.wall_ms,
                run.events, hit_pct, run.fluid.flows_skipped,
                run.avg_response * 1e3, deterministic ? "ok" : "NONDET");

    bench::JsonBenchCase c =
        make_case("cached/clients=" + std::to_string(n), n, run,
                  deterministic);
    c.extra["region_hits"] = static_cast<double>(region_cache.hits());
    c.extra["region_misses"] = static_cast<double>(region_cache.misses());
    c.extra["region_evictions"] = static_cast<double>(region_cache.evictions());
    c.extra["size_hits"] = static_cast<double>(size_cache.hits());
    c.extra["size_misses"] = static_cast<double>(size_cache.misses());
    c.extra["chunk_hits"] = static_cast<double>(chunk_cache.hits());
    bench::add_tile_store_counters(c, store);
    cases.push_back(std::move(c));

    // The incremental-fluid contract: under-subscribed capped flows must
    // be skipped, not rescaled, when other flows come and go.
    if (n == kGateClients && run.fluid.flows_skipped == 0) {
      std::fprintf(stderr,
                   "FAIL: fluid reallocation skipped no flows at %d clients "
                   "(incremental path not engaged)\n",
                   n);
      ok = false;
    }
  }

  // No-cache baseline at the gate point: every request re-serializes its
  // region and really compresses (and clients really decompress).
  {
    WorldSetup naive = scale_setup(kGateClients);
    naive.server_options.size_cache = nullptr;
    naive.server_options.region_cache = nullptr;
    naive.server_options.chunk_cache = nullptr;
    RunStats run = run_case(naive, cfg);
    std::printf("%-22s %12.2f %12" PRIu64 "\n", "naive/clients=64",
                run.wall_ms, run.events);

    bench::JsonBenchCase c;
    c.label = "naive/clients=" + std::to_string(kGateClients);
    c.wall_ns = run.wall_ms * 1e6;
    c.extra["clients"] = kGateClients;
    c.extra["events"] = static_cast<double>(run.events);
    c.extra["avg_response_s"] = run.avg_response;

    double speedup = cached_64_ms > 0.0 ? run.wall_ms / cached_64_ms : 0.0;
    c.extra["cached_speedup"] = speedup;
    bool bytes_equal = payloads_match(cached_64, run.result);
    c.extra["payloads_match_cached"] = bytes_equal ? 1.0 : 0.0;
    cases.push_back(std::move(c));

    if (!bytes_equal) {
      std::fprintf(stderr,
                   "FAIL: cached and uncached 64-client runs disagree on "
                   "payload bytes\n");
      ok = false;
    }
    // Throughput floor, overridable for instrumented builds
    // (AVF_VIZ_MIN_SPEEDUP=0 disables).
    double min_speedup = env_or("AVF_VIZ_MIN_SPEEDUP", 4.0);
    std::printf("cached 64-client speedup over naive: %.2fx (floor %.2fx)\n",
                speedup, min_speedup);
    if (speedup < min_speedup) {
      std::fprintf(stderr, "FAIL: 64-client cached speedup %.2fx < %.2fx\n",
                   speedup, min_speedup);
      ok = false;
    }
  }

  // -- scale sweep: 1k / 10k deterministic sessions -----------------------
  const std::vector<int> scale_counts = scale_counts_from_env();
  const double max_wall_ratio = env_or("AVF_VIZ_MAX_WALL_RATIO", 4.0);
  int churn_clients = 0;
  for (int n : scale_counts) {
    CompressedSizeCache size_cache;
    TileStore store;  // one content-addressed store behind both layers
    RegionEncodeCache region_cache(store);
    CompressedChunkCache chunk_cache(store);
    WorldSetup setup = scale_setup(n);
    setup.server_options.size_cache = &size_cache;
    setup.server_options.region_cache = &region_cache;
    setup.server_options.chunk_cache = &chunk_cache;

    RunStats run = run_case(setup, cfg);
    std::uint64_t fp = viz::result_fingerprint(run.result);
    RunStats replay = run_case(setup, cfg);
    bool deterministic = viz::result_fingerprint(replay.result) == fp;
    ok = ok && deterministic;
    churn_clients = std::max(churn_clients, n);

    double per_client = run.wall_ms / n;
    double ratio =
        wall_per_client_128 > 0.0 ? per_client / wall_per_client_128 : 0.0;
    std::printf("%-22s %12.2f %12" PRIu64 " wall/client %.3fms (%.2fx of "
                "128-client) %s\n",
                ("scale/clients=" + std::to_string(n)).c_str(), run.wall_ms,
                run.events, per_client, ratio,
                deterministic ? "ok" : "NONDET");

    bench::JsonBenchCase c =
        make_case("scale/clients=" + std::to_string(n), n, run,
                  deterministic);
    c.extra["wall_ratio_vs_128"] = ratio;
    bench::add_tile_store_counters(c, store);
    cases.push_back(std::move(c));

    if (!deterministic) {
      std::fprintf(stderr, "FAIL: %d-client scale sweep not deterministic\n",
                   n);
    }
    // Near-linear wall clock: per-client cost bounded relative to the
    // 128-client world (a quadratic core would blow through this within
    // one octave).  AVF_VIZ_MAX_WALL_RATIO=0 disables for slow machines.
    if (max_wall_ratio > 0.0 && ratio > max_wall_ratio) {
      std::fprintf(stderr,
                   "FAIL: %d-client wall per client %.3fms is %.2fx the "
                   "128-client cost (limit %.2fx)\n",
                   n, per_client, ratio, max_wall_ratio);
      ok = false;
    }
    // Sublinear reallocation: full rebuilds come only from capacity
    // changes and slot mutations, never from arrivals or departures, so
    // their count is flat in N — a constant ceiling, not merely linear.  A
    // water-filling pass per event was ~N^2/2-ish (8384 at 128 clients).
    constexpr std::uint64_t kMaxFullReallocs = 4096;
    if (run.fluid.full_reallocs > kMaxFullReallocs) {
      std::fprintf(stderr,
                   "FAIL: %" PRIu64 " full link reallocations at %d clients "
                   "(limit %" PRIu64 ", expected flat in N)\n",
                   run.fluid.full_reallocs, n, kMaxFullReallocs);
      ok = false;
    }
    // The incremental engine must actually carry the load at scale.
    if (run.cpu.sparse_events + run.fluid.sparse_events == 0) {
      std::fprintf(stderr,
                   "FAIL: no incremental fluid event at %d clients\n", n);
      ok = false;
    }
  }

  // -- churn soak: staggered waves + link-flap fault schedule -------------
  if (churn_clients > 0) {
    int n = std::min(churn_clients, 1024);
    CompressedSizeCache size_cache;
    TileStore store;  // one content-addressed store behind both layers
    RegionEncodeCache region_cache(store);
    CompressedChunkCache chunk_cache(store);
    WorldSetup setup = scale_setup(n);
    setup.server_options.size_cache = &size_cache;
    setup.server_options.region_cache = &region_cache;
    setup.server_options.chunk_cache = &chunk_cache;

    ChurnPlan plan;
    plan.waves = 8;
    plan.wave_gap = 5.0;
    plan.faults.faults.push_back(
        {testkit::FaultKind::kLinkFlap, /*at=*/2.0, /*until=*/20.0,
         /*value=*/setup.link_bandwidth_bps / 8.0, /*period=*/0.5});
    plan.fault_seed = 1;

    RunStats run = run_case(setup, cfg, &plan);
    std::uint64_t fp = viz::result_fingerprint(run.result);
    RunStats replay = run_case(setup, cfg, &plan);
    bool deterministic = viz::result_fingerprint(replay.result) == fp;
    ok = ok && deterministic;
    std::printf("%-22s %12.2f %12" PRIu64 " %s\n",
                ("churn/clients=" + std::to_string(n)).c_str(), run.wall_ms,
                run.events, deterministic ? "ok" : "NONDET");
    if (!deterministic) {
      std::fprintf(stderr,
                   "FAIL: churn soak (%d clients, link flap) not "
                   "deterministic\n",
                   n);
    }
    std::size_t incomplete = 0;
    for (const auto& session : run.result.clients) {
      if (session.images.size() !=
          static_cast<std::size_t>(setup.image_count)) {
        ++incomplete;
      }
    }
    if (incomplete > 0) {
      std::fprintf(stderr, "FAIL: %zu churn sessions incomplete\n",
                   incomplete);
      ok = false;
    }
    bench::JsonBenchCase c = make_case(
        "churn/clients=" + std::to_string(n), n, run, deterministic);
    c.extra["churn_waves"] = plan.waves;
    c.extra["churn_wave_gap_s"] = plan.wave_gap;
    bench::add_tile_store_counters(c, store);
    cases.push_back(std::move(c));
  }

  bench::write_bench_json("micro_viz_scale", cases);
  if (!ok) return 1;
  std::printf("all client counts deterministic; caches byte-transparent\n");
  return 0;
}
