// Micro-benchmark: content-addressed tile-store dedup across a duplicate
// catalog.
//
// The server stores 8 *distinct* pyramid objects carrying identical
// content (the bench registers them through VizServer::add_image) and 64
// concurrent sessions foveate them.  The old pointer-keyed
// RegionEncodeCache pinned one entry set per pyramid, so this catalog cost
// 8x one image's payload bytes; the content-addressed store resolves all 8
// images to one entry set.  Measured contracts:
//
//  1. Dedup payoff: resident store bytes under identity keying (each
//     image registered under a hash of its id, the old behavior) divided
//     by resident bytes under content keying >= AVF_VIZ_MIN_DEDUP (default
//     4; 0 disables).  With 8 duplicate images the expected ratio is ~8x
//     on region payloads, diluted only by the (already content-keyed)
//     compressed chunks.
//  2. Cross-image sharing really happened: the content run's
//     cross_origin_hits counter (hits whose entry was inserted under a
//     different image id) is > 0.
//  3. Cache transparency: content keying, identity keying, and the
//     verify_on_hit run all produce the *same* result fingerprint, and the
//     cached payload bytes match a no-cache baseline byte for byte.
//  4. Determinism: the content run replayed fingerprints identically.
//  5. Collision freedom: a verify_on_hit run (rebuild + byte-compare every
//     hit) over the full workload records zero collisions.
//  6. Memory scales with unique content: the 64-session/8-image resident
//     bytes stay within AVF_VIZ_MAX_RESIDENT_MULT (default 2x) of a
//     1-session/1-image reference world.
//
// Per-case JSON (bench_results/BENCH_micro_viz_dedup.json): wall_ns,
// simulated events, and the tile-store memory/dedup counters
// (bytes_resident, bytes_deduped, unique_entries, pinned_entries, ...).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/hash.hpp"
#include "viz/caches.hpp"
#include "viz/tile_store.hpp"
#include "viz/world.hpp"

namespace {

using namespace avf;
using viz::CompressedChunkCache;
using viz::CompressedSizeCache;
using viz::MultiSessionResult;
using viz::RegionEncodeCache;
using viz::ServerCaches;
using viz::TileStore;
using viz::VizWorld;
using viz::WorldSetup;

constexpr int kSessions = 64;
constexpr int kImages = 8;

WorldSetup dedup_setup(int sessions) {
  WorldSetup setup;
  setup.client_count = sessions;
  setup.image_size = 256;
  setup.levels = 3;
  setup.image_count = kImages;
  // Same under-subscription caps as micro_viz_scale: the aggregate stays
  // below link capacity so per-flow rates are stable across client counts.
  setup.client_net_bps = setup.link_bandwidth_bps / 256.0;
  setup.server_net_bps = setup.link_bandwidth_bps / 256.0;
  return setup;
}

struct RunStats {
  MultiSessionResult result;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
};

/// How the duplicate catalog keys its region entries: by the content
/// hash, or by a hash of the image id — the old pin-per-pyramid baseline,
/// where identical content stored under distinct ids caches separately.
enum class Keying { kContent, kIdentity };

util::Hash128 identity_key(std::uint32_t id) {
  util::Hasher128 h(/*seed=*/0x69646e74ULL);  // "idnt"
  h.update_u32(id);
  return h.finish();
}

/// Re-register every image id of `world` with the content of the
/// setup's first image, each as its own freshly decomposed Pyramid:
/// pointer identity cannot dedup this catalog, content addressing can.
void add_duplicate_catalog(VizWorld& world, Keying keying) {
  const WorldSetup& setup = world.setup();
  const viz::PyramidEntry entry = viz::cached_pyramid_entry(
      setup.image_size, setup.image_seed, setup.levels);
  for (int i = 0; i < setup.image_count; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    world.server().add_image(
        id,
        std::make_shared<const wavelet::Pyramid>(
            viz::cached_image(setup.image_size, setup.image_seed),
            setup.levels),
        keying == Keying::kContent ? entry.content_hash : identity_key(id));
  }
}

/// One fixed-configuration run of every client in a caller-owned world
/// over the duplicate catalog, so the simulator's event count can be read
/// afterwards.
RunStats run_case(const WorldSetup& setup, const tunable::ConfigPoint& cfg,
                  Keying keying = Keying::kContent) {
  auto start = std::chrono::steady_clock::now();

  VizWorld world(setup);
  add_duplicate_catalog(world, keying);
  for (int i = 0; i < setup.client_count; ++i) {
    world.make_client_at(static_cast<std::size_t>(i), cfg);
  }
  RunStats stats;
  stats.result = viz::run_world(world);

  auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  stats.events = world.simulator().events_processed();
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

bench::JsonBenchCase make_case(const std::string& label, int sessions,
                               const RunStats& run, const TileStore& store) {
  bench::JsonBenchCase c;
  c.label = label;
  c.wall_ns = run.wall_ms * 1e6;
  c.extra["sessions"] = sessions;
  c.extra["images"] = kImages;
  c.extra["events"] = static_cast<double>(run.events);
  c.extra["sim_time_s"] = run.result.total_time;
  bench::add_tile_store_counters(c, store);
  return c;
}

}  // namespace

int main() {
  const tunable::ConfigPoint cfg = bench::viz_config(160, 1, 3);
  bool ok = true;
  std::vector<bench::JsonBenchCase> cases;

  std::printf("micro_viz_dedup: %d sessions x %d duplicate 256px images, "
              "dR=160 lzw l=3\n", kSessions, kImages);
  std::printf("%-18s %12s %12s %14s %10s %8s\n", "case", "wall_ms", "events",
              "resident_B", "entries", "xo_hits");

  auto report = [](const char* label, const RunStats& run,
                   const TileStore& store) {
    std::printf("%-18s %12.2f %12" PRIu64 " %14zu %10zu %8" PRIu64 "\n",
                label, run.wall_ms, run.events, store.bytes_resident(),
                store.unique_entries(), store.cross_origin_hits());
  };

  // -- content-addressed run (the new behavior) ---------------------------
  WorldSetup content_setup = dedup_setup(kSessions);
  ServerCaches content_caches;
  content_caches.attach(content_setup);
  const TileStore& content_store = content_caches.store;

  RunStats content = run_case(content_setup, cfg);
  std::uint64_t content_fp = viz::result_fingerprint(content.result);
  std::size_t content_resident = content_store.bytes_resident();
  std::uint64_t cross_hits = content_store.cross_origin_hits();
  report("content", content, content_store);
  cases.push_back(make_case("content", kSessions, content, content_store));

  if (cross_hits == 0) {
    std::fprintf(stderr,
                 "FAIL: no cross-image store hits — the catalog's duplicate "
                 "images did not share entries\n");
    ok = false;
  }

  // -- determinism: identical world replayed ------------------------------
  {
    ServerCaches caches;
    WorldSetup setup = dedup_setup(kSessions);
    caches.attach(setup);
    const TileStore& store = caches.store;
    RunStats replay = run_case(setup, cfg);
    bool deterministic = viz::result_fingerprint(replay.result) == content_fp;
    report("replay", replay, store);
    bench::JsonBenchCase c = make_case("replay", kSessions, replay, store);
    c.extra["deterministic"] = deterministic ? 1.0 : 0.0;
    cases.push_back(std::move(c));
    if (!deterministic) {
      std::fprintf(stderr, "FAIL: replayed content run not deterministic\n");
      ok = false;
    }
  }

  // -- identity-keyed baseline (the old pin-per-pyramid behavior) ---------
  std::size_t identity_resident = 0;
  {
    ServerCaches caches;
    WorldSetup setup = dedup_setup(kSessions);
    caches.attach(setup);
    const TileStore& store = caches.store;
    RunStats identity = run_case(setup, cfg, Keying::kIdentity);
    identity_resident = store.bytes_resident();
    report("identity", identity, store);
    bool same_trace = viz::result_fingerprint(identity.result) == content_fp;
    bench::JsonBenchCase c = make_case("identity", kSessions, identity, store);
    c.extra["trace_matches_content"] = same_trace ? 1.0 : 0.0;
    cases.push_back(std::move(c));
    if (!same_trace) {
      std::fprintf(stderr,
                   "FAIL: identity-keyed baseline changed the trace (caches "
                   "must save cycles only)\n");
      ok = false;
    }
  }

  // -- verify_on_hit run: every hit rebuilt and byte-compared -------------
  {
    CompressedSizeCache sizes;
    TileStore::Options opts;
    opts.verify_on_hit = true;
    TileStore store(opts);
    RegionEncodeCache regions(store);
    CompressedChunkCache chunks(store);
    WorldSetup setup = dedup_setup(kSessions);
    setup.server_options.size_cache = &sizes;
    setup.server_options.region_cache = &regions;
    setup.server_options.chunk_cache = &chunks;
    RunStats verified = run_case(setup, cfg);
    report("verified", verified, store);
    bool same_trace = viz::result_fingerprint(verified.result) == content_fp;
    bench::JsonBenchCase c = make_case("verified", kSessions, verified, store);
    c.extra["trace_matches_content"] = same_trace ? 1.0 : 0.0;
    cases.push_back(std::move(c));
    if (store.collisions() != 0) {
      std::fprintf(stderr,
                   "FAIL: verify_on_hit caught %" PRIu64
                   " hash collisions in the dedup workload\n",
                   store.collisions());
      ok = false;
    }
    if (!same_trace) {
      std::fprintf(stderr, "FAIL: verify_on_hit run changed the trace\n");
      ok = false;
    }
  }

  // -- no-cache baseline: byte-identical payloads -------------------------
  {
    WorldSetup naive = dedup_setup(kSessions);  // no caches attached
    RunStats nocache = run_case(naive, cfg);
    std::printf("%-18s %12.2f %12" PRIu64 "\n", "nocache", nocache.wall_ms,
                nocache.events);
    bench::JsonBenchCase c;
    c.label = "nocache";
    c.wall_ns = nocache.wall_ms * 1e6;
    c.extra["sessions"] = kSessions;
    c.extra["events"] = static_cast<double>(nocache.events);
    bool bytes_equal = payloads_match(content.result, nocache.result);
    c.extra["payloads_match_cached"] = bytes_equal ? 1.0 : 0.0;
    cases.push_back(std::move(c));
    if (!bytes_equal) {
      std::fprintf(stderr,
                   "FAIL: cached and uncached runs disagree on payload "
                   "bytes\n");
      ok = false;
    }
  }

  // -- 1-session/1-image reference: one image's unique payload ------------
  std::size_t reference_resident = 0;
  {
    ServerCaches caches;
    WorldSetup setup = dedup_setup(1);
    setup.image_count = 1;
    caches.attach(setup);
    const TileStore& store = caches.store;
    RunStats reference = run_case(setup, cfg);
    reference_resident = store.bytes_resident();
    report("reference-1x1", reference, store);
    cases.push_back(make_case("reference-1x1", 1, reference, store));
  }

  // -- gates ---------------------------------------------------------------
  double dedup_ratio = content_resident > 0
                           ? static_cast<double>(identity_resident) /
                                 static_cast<double>(content_resident)
                           : 0.0;
  double resident_mult =
      reference_resident > 0
          ? static_cast<double>(content_resident) /
                static_cast<double>(reference_resident)
          : 0.0;
  double min_dedup = env_or("AVF_VIZ_MIN_DEDUP", 4.0);
  double max_mult = env_or("AVF_VIZ_MAX_RESIDENT_MULT", 2.0);
  std::printf("dedup ratio (identity/content resident bytes): %.2fx "
              "(floor %.2fx)\n", dedup_ratio, min_dedup);
  std::printf("resident vs 1x1 reference: %.2fx (ceiling %.2fx); "
              "cross-image hits: %" PRIu64 "\n",
              resident_mult, max_mult, cross_hits);
  if (min_dedup > 0.0 && dedup_ratio < min_dedup) {
    std::fprintf(stderr, "FAIL: dedup ratio %.2fx < floor %.2fx\n",
                 dedup_ratio, min_dedup);
    ok = false;
  }
  if (max_mult > 0.0 && resident_mult > max_mult) {
    std::fprintf(stderr,
                 "FAIL: 64-session resident bytes are %.2fx the one-image "
                 "reference (ceiling %.2fx — memory must scale with unique "
                 "content)\n",
                 resident_mult, max_mult);
    ok = false;
  }

  bench::JsonBenchCase summary;
  summary.label = "summary";
  summary.extra["dedup_ratio"] = dedup_ratio;
  summary.extra["resident_mult_vs_reference"] = resident_mult;
  summary.extra["bytes_resident_content"] =
      static_cast<double>(content_resident);
  summary.extra["bytes_resident_identity"] =
      static_cast<double>(identity_resident);
  summary.extra["bytes_resident_reference"] =
      static_cast<double>(reference_resident);
  summary.extra["cross_origin_hits"] = static_cast<double>(cross_hits);
  cases.push_back(std::move(summary));

  bench::write_bench_json("micro_viz_dedup", cases);
  if (!ok) return 1;
  std::printf("dedup contracts hold: content-addressed store shares tiles "
              "across images and sessions\n");
  return 0;
}
