// Multi-client determinism and cache-transparency suite.
//
// Two invariants anchor the multi-session server:
//  1. Determinism: for a fixed seed, a run is a pure function of the setup —
//     running the same N-client world twice yields byte-identical results
//     (compared via result_fingerprint) for any N.
//  2. Cache transparency: the shared encode/compression caches save host
//     cycles only; enabling or disabling them must not change a single
//     payload byte or any simulated timestamp.
#include <gtest/gtest.h>

#include <cstdint>

#include "viz/caches.hpp"
#include "viz/world.hpp"

namespace avf::viz {
namespace {

using tunable::ConfigPoint;

ConfigPoint cfg(int dR, int c, int l) {
  ConfigPoint p;
  p.set("dR", dR);
  p.set("c", c);
  p.set("l", l);
  return p;
}

WorldSetup small_setup(int clients) {
  WorldSetup setup;
  setup.client_count = clients;
  setup.image_size = 256;
  setup.levels = 3;
  setup.image_count = 2;
  return setup;
}

class MultiClientDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(MultiClientDeterminism, SameSeedSameFingerprint) {
  const int n = GetParam();
  ConfigPoint config = cfg(160, 1, 3);
  // One bundle for both runs: the second replays against warm caches.
  ServerCaches caches;
  WorldSetup setup = small_setup(n);
  caches.attach(setup);
  MultiSessionResult first = run_multi_fixed_session(setup, config);
  MultiSessionResult second = run_multi_fixed_session(setup, config);

  ASSERT_EQ(first.clients.size(), static_cast<std::size_t>(n));
  for (const SessionResult& client : first.clients) {
    ASSERT_EQ(client.images.size(), 2u);
    EXPECT_GT(client.images[0].rounds, 0);
    EXPECT_NE(client.images[0].payload_hash, 0u);
  }
  EXPECT_EQ(result_fingerprint(first), result_fingerprint(second));
  EXPECT_DOUBLE_EQ(first.total_time, second.total_time);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, MultiClientDeterminism,
                         ::testing::Values(1, 4, 16));

TEST(MultiClient, CachedMatchesUncachedByteForByte) {
  ConfigPoint config = cfg(160, 1, 3);

  // Cached run: each layer on a private store of its own.
  CompressedSizeCache size_cache;
  RegionEncodeCache region_cache;
  CompressedChunkCache chunk_cache;
  WorldSetup cached = small_setup(4);
  cached.server_options.size_cache = &size_cache;
  cached.server_options.region_cache = &region_cache;
  cached.server_options.chunk_cache = &chunk_cache;
  MultiSessionResult with_caches = run_multi_fixed_session(cached, config);

  // Uncached run (no caches is the default): every request re-serializes
  // and really compresses.
  WorldSetup naive = small_setup(4);
  MultiSessionResult without = run_multi_fixed_session(naive, config);

  // Four clients fetching the same images from identical sent-states means
  // the shared region cache must have been exercised.
  EXPECT_GT(region_cache.hits(), 0u);
  EXPECT_GT(region_cache.misses(), 0u);

  // Caches save host cycles, never simulated work: payload bytes and every
  // timestamp agree exactly with the naive path.
  ASSERT_EQ(with_caches.clients.size(), without.clients.size());
  for (std::size_t i = 0; i < with_caches.clients.size(); ++i) {
    const auto& a = with_caches.clients[i].images;
    const auto& b = without.clients[i].images;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].payload_hash, b[j].payload_hash);
      EXPECT_EQ(a[j].wire_bytes, b[j].wire_bytes);
      EXPECT_EQ(a[j].rounds, b[j].rounds);
      EXPECT_DOUBLE_EQ(a[j].end_time, b[j].end_time);
    }
  }
  EXPECT_EQ(result_fingerprint(with_caches), result_fingerprint(without));
}

TEST(ServerCaches, OptionsHoldNoCacheByDefault) {
  const VizServer::Options options{};
  EXPECT_EQ(options.size_cache, nullptr);
  EXPECT_EQ(options.region_cache, nullptr);
  EXPECT_EQ(options.chunk_cache, nullptr);
  const WorldSetup setup{};
  EXPECT_EQ(setup.server_options.size_cache, nullptr);
  EXPECT_EQ(setup.server_options.region_cache, nullptr);
  EXPECT_EQ(setup.server_options.chunk_cache, nullptr);
}

TEST(ServerCaches, AttachedRunMatchesARunWithoutCaches) {
  ConfigPoint config = cfg(160, 2, 3);
  ServerCaches caches;
  WorldSetup cached = small_setup(4);
  caches.attach(cached);
  EXPECT_EQ(cached.server_options.size_cache, &caches.size);
  EXPECT_EQ(cached.server_options.region_cache, &caches.region);
  EXPECT_EQ(cached.server_options.chunk_cache, &caches.chunk);
  // The size layer has a store of its own; region and chunk share one.
  EXPECT_NE(&caches.size.store(), &caches.store);
  EXPECT_EQ(&caches.region.store(), &caches.store);
  EXPECT_EQ(&caches.chunk.store(), &caches.store);

  MultiSessionResult with_caches = run_multi_fixed_session(cached, config);
  MultiSessionResult without =
      run_multi_fixed_session(small_setup(4), config);
  EXPECT_EQ(result_fingerprint(with_caches), result_fingerprint(without));
  EXPECT_DOUBLE_EQ(with_caches.total_time, without.total_time);
  // The bundle did the work: sizes measured through the chunk layer once
  // per distinct payload, then served from the size layer.
  EXPECT_GT(caches.region.hits(), 0u);
  EXPECT_GT(caches.size.hits(), 0u);
  EXPECT_EQ(caches.chunk.misses(), caches.size.misses());
}

TEST(MultiClient, InterleavedSessionsShareRegionEncodes) {
  // With premeasured replies disabled the server ships genuine compressed
  // bytes, exercising the chunk cache across interleaved sessions too.
  ConfigPoint config = cfg(160, 1, 3);
  RegionEncodeCache region_cache;
  CompressedChunkCache chunk_cache;
  WorldSetup setup = small_setup(4);  // no size cache: fidelity mode
  setup.server_options.region_cache = &region_cache;
  setup.server_options.chunk_cache = &chunk_cache;

  MultiSessionResult result = run_multi_fixed_session(setup, config);
  ASSERT_EQ(result.clients.size(), 4u);

  // All four sessions walk the same foveal schedule over the same images,
  // so beyond the first session the others hit both caches.
  EXPECT_GT(region_cache.hits(), 0u);
  EXPECT_GT(chunk_cache.hits(), 0u);
  // Every client decoded the same pixel stream.
  for (std::size_t i = 1; i < result.clients.size(); ++i) {
    ASSERT_EQ(result.clients[i].images.size(),
              result.clients[0].images.size());
    for (std::size_t j = 0; j < result.clients[i].images.size(); ++j) {
      EXPECT_EQ(result.clients[i].images[j].payload_hash,
                result.clients[0].images[j].payload_hash);
    }
  }
}

TEST(MultiClient, AdaptiveMultiSessionIsDeterministic) {
  // Tiny profile: enough for the scheduler to pick configurations; the
  // paper-scale trends are covered by test_adaptation.cpp.  Four pyramid
  // levels so every configuration in the spec (l up to 4) is servable.
  ServerCaches caches;
  WorldSetup profile_setup = small_setup(1);
  profile_setup.levels = 4;
  caches.attach(profile_setup);
  const perfdb::PerfDatabase db =
      build_viz_database(profile_setup, {0.5, 1.0}, {250e3, 12.5e6});
  adapt::PreferenceList prefs = {adapt::minimize("transmit_time")};

  WorldSetup setup = small_setup(4);
  setup.levels = 4;
  caches.attach(setup);
  MultiSessionResult first = run_multi_adaptive_session(setup, db, prefs);
  MultiSessionResult second = run_multi_adaptive_session(setup, db, prefs);

  ASSERT_EQ(first.clients.size(), 4u);
  for (const SessionResult& client : first.clients) {
    EXPECT_FALSE(client.initial_config.values().empty());
    ASSERT_EQ(client.images.size(), 2u);
  }
  EXPECT_EQ(result_fingerprint(first), result_fingerprint(second));
}

TEST(MultiClient, ReopenWhileRequestInFlightKeepsOldSessionAlive) {
  // Regression: handle_request used to hold a plain reference into the
  // session map entry across its co_awaits.  Session ids are server-global,
  // so a second serve loop re-opening the same id would overwrite the map
  // entry and destroy the Session — and its ProgressiveEncoder — under the
  // suspended handler (a use-after-free ASan catches).  Sessions are now
  // shared_ptr-pinned: the in-flight request completes against the old
  // session while new traffic sees the new one.
  WorldSetup setup;
  setup.image_size = 256;
  setup.levels = 4;
  setup.image_count = 1;
  setup.client_count = 2;
  VizWorld world(setup);
  world.spawn_server_loops();

  bool reply_seen = false;
  auto first = [&]() -> sim::Task<> {
    sim::Endpoint& ep = world.client_endpoint(0);
    co_await ep.send(encode(
        OpenImage{.session_id = 7, .image_id = 0, .level = 4, .codec = 1}));
    sim::Message ack = co_await ep.recv();
    EXPECT_EQ(ack.kind, kOpenAck);
    co_await ep.send(encode(Request{
        .session_id = 7, .cx = 10, .cy = 10, .half = 10, .level = 4}));
    sim::Message reply = co_await ep.recv();
    EXPECT_EQ(reply.kind, kReply);
    EXPECT_EQ(decode_reply(reply).session_id, 7u);
    reply_seen = true;
    co_await ep.send(encode_shutdown());
  };
  auto second = [&]() -> sim::Task<> {
    // Wait until the first client's request handler has started (it bumps
    // requests_served() before its first await), then re-open the same
    // session id from the other endpoint while the handler is suspended.
    while (world.server().requests_served() == 0) {
      co_await world.simulator().delay(1e-4);
    }
    sim::Endpoint& ep = world.client_endpoint(1);
    co_await ep.send(encode(
        OpenImage{.session_id = 7, .image_id = 0, .level = 3, .codec = 0}));
    sim::Message ack = co_await ep.recv();
    EXPECT_EQ(ack.kind, kOpenAck);
    co_await ep.send(encode_shutdown());
  };
  world.simulator().spawn(first());
  world.simulator().spawn(second());
  world.simulator().run();
  EXPECT_TRUE(reply_seen);
}

}  // namespace
}  // namespace avf::viz
