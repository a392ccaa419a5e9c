// The content-addressed TileStore: hit/miss/dedup counters, byte-budgeted
// second-chance (CLOCK) eviction, eviction-under-pin safety, the
// verify_on_hit collision guard, exact counters under concurrent callers,
// one build per missing key (and its failure reaching every waiter),
// and the pins a premeasured reply holds on the store's entry while it is
// in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/hash.hpp"
#include "viz/caches.hpp"
#include "viz/protocol.hpp"
#include "viz/tile_store.hpp"
#include "viz/world.hpp"

namespace avf::viz {
namespace {

TileStore::Key key_of(std::uint32_t i) {
  return util::Hasher128::of(&i, sizeof(i), /*seed=*/0x7465737453ULL);
}

TileStore::Payload payload_of(std::size_t size, std::uint8_t fill) {
  return TileStore::Payload(size, fill);
}

TEST(TileStore, HitMissAndDedupCounters) {
  TileStore store;
  int builds = 0;
  auto build = [&] {
    ++builds;
    return payload_of(100, 7);
  };

  auto first = store.get_or_build(key_of(1), /*origin_tag=*/1, build);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.unique_entries(), 1u);
  EXPECT_EQ(store.bytes_resident(), 100u);

  auto second = store.get_or_build(key_of(1), /*origin_tag=*/1, build);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(builds, 1);  // the builder never ran on the hit
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.bytes_deduped(), 100u);
  EXPECT_EQ(store.cross_origin_hits(), 0u);  // same tag
  EXPECT_EQ(first.payload.get(), second.payload.get());

  // Same key from a different origin: the cross-image dedup counter.
  auto cross = store.get_or_build(key_of(1), /*origin_tag=*/2, build);
  EXPECT_TRUE(cross.hit);
  EXPECT_EQ(store.cross_origin_hits(), 1u);
  EXPECT_EQ(store.bytes_deduped(), 200u);
}

TEST(TileStore, SecondChanceClockSparesTouchedEntries) {
  // Identical twin stores, budget = two 64-byte payloads.  Both insert
  // A, B, C (the C insert sweeps: clears A's and B's bits, evicts A,
  // leaving C and B unreferenced with the hand on C).  One store then
  // *touches* C before inserting D; the other does not.  The touched C
  // spends its reference bit and survives the D sweep — the untouched C
  // is the victim.
  // A probe that hits changes only the entry's reference bit; one that
  // misses inserts (and may evict), so each check below probes its
  // survivor first.
  auto resident = [](TileStore& store, std::uint32_t k) {
    auto build = [k] { return payload_of(64, static_cast<std::uint8_t>(k)); };
    return store.get_or_build(key_of(k), 0, build).hit;
  };
  auto run = [&](bool touch_c) {
    TileStore::Options opts;
    opts.byte_budget = 128;
    auto store = std::make_unique<TileStore>(opts);
    for (std::uint32_t k = 1; k <= 3; ++k) {
      (void)store->get_or_build(key_of(k), 0,
                                [&] { return payload_of(64, k); });
    }
    EXPECT_EQ(store->evictions(), 1u);  // A (key 1) went FIFO
    if (touch_c) {
      EXPECT_TRUE(resident(*store, 3));
    }
    (void)store->get_or_build(key_of(4), 0, [&] { return payload_of(64, 4); });
    EXPECT_EQ(store->evictions(), 2u);
    EXPECT_EQ(store->unique_entries(), 2u);
    EXPECT_LE(store->bytes_resident(), opts.byte_budget);
    return store;
  };

  auto touched = run(/*touch_c=*/true);
  EXPECT_TRUE(resident(*touched, 3));   // C survived
  EXPECT_FALSE(resident(*touched, 2));  // B was the victim

  auto untouched = run(/*touch_c=*/false);
  EXPECT_TRUE(resident(*untouched, 2));   // B survived
  EXPECT_FALSE(resident(*untouched, 3));  // C was the victim
}

TEST(TileStore, EvictionUnderPinKeepsPayloadAlive) {
  TileStore::Options opts;
  opts.byte_budget = 64;  // exactly one payload
  TileStore store(opts);

  auto pinned = store.get_or_build(key_of(1), 0,
                                   [] { return payload_of(64, 0xAA); });
  TileStore::Payload snapshot = pinned.payload->bytes();
  EXPECT_EQ(store.pinned_entries(), 1u);

  // The second insert evicts the first entry even though it is pinned.
  auto second = store.get_or_build(key_of(2), 0,
                                   [] { return payload_of(64, 0xBB); });
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.unique_entries(), 1u);
  EXPECT_EQ(store.bytes_evicted(), 64u);

  // The in-flight pin still sees the exact original bytes.
  EXPECT_EQ(pinned.payload->bytes(), snapshot);
  // The store itself no longer has the entry: a re-request rebuilds.
  int rebuilds = 0;
  auto re = store.get_or_build(key_of(1), 0, [&] {
    ++rebuilds;
    return payload_of(64, 0xAA);
  });
  EXPECT_FALSE(re.hit);
  EXPECT_EQ(rebuilds, 1);
  EXPECT_EQ(re.payload->bytes(), snapshot);

  // Dropping the last external pin empties the pinned count for that
  // entry's payload (the freshly returned pins still count).
  (void)second;
}

TEST(TileStore, PinnedEntriesTracksExternalReferences) {
  TileStore store;
  {
    auto held = store.get_or_build(key_of(1), 0,
                                   [] { return payload_of(32, 1); });
    EXPECT_EQ(store.pinned_entries(), 1u);
    (void)held;
  }
  // The pin went out of scope: the entry stays resident but unpinned.
  EXPECT_EQ(store.unique_entries(), 1u);
  EXPECT_EQ(store.pinned_entries(), 0u);
}

TEST(TileStore, VerifyOnHitCatchesInjectedCollision) {
  TileStore::Options opts;
  opts.verify_on_hit = true;
  TileStore store(opts);

  auto a = store.get_or_build(key_of(1), /*origin_tag=*/1,
                              [] { return payload_of(48, 0x11); });
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(a.collision);

  // Simulate a 128-bit collision: the same key now maps to *different*
  // content.  verify_on_hit rebuilds, detects the mismatch, replaces the
  // entry, and returns the rebuilt (correct) payload — a collision can
  // never corrupt a reply.
  auto b = store.get_or_build(key_of(1), /*origin_tag=*/2,
                              [] { return payload_of(48, 0x22); });
  EXPECT_TRUE(b.hit);
  EXPECT_TRUE(b.collision);
  EXPECT_EQ(b.payload->bytes(), payload_of(48, 0x22));
  EXPECT_EQ(store.collisions(), 1u);
  EXPECT_EQ(store.unique_entries(), 1u);
  EXPECT_EQ(store.bytes_resident(), 48u);

  // The entry now holds the replacement: same builder verifies clean.
  auto c = store.get_or_build(key_of(1), /*origin_tag=*/2,
                              [] { return payload_of(48, 0x22); });
  EXPECT_TRUE(c.hit);
  EXPECT_FALSE(c.collision);
  EXPECT_EQ(store.collisions(), 1u);
}

TEST(TileStore, CollisionReplacementIsAFreshBlob) {
  // The replaced entry's memoized hash must not carry over: the rebuilt
  // payload gets its own Blob, whose hash is that of the rebuilt bytes.
  TileStore::Options opts;
  opts.verify_on_hit = true;
  TileStore store(opts);
  auto a = store.get_or_build(key_of(1), 0, [] { return payload_of(48, 0x11); });
  const std::uint64_t a_hash = a.payload->fnv1a64(util::kFnv1aOffset);

  auto b = store.get_or_build(key_of(1), 0, [] { return payload_of(48, 0x22); });
  ASSERT_TRUE(b.collision);
  EXPECT_NE(a.payload.get(), b.payload.get());
  const TileStore::Payload rebuilt = payload_of(48, 0x22);
  EXPECT_EQ(b.payload->fnv1a64(util::kFnv1aOffset),
            util::fnv1a64(rebuilt.data(), rebuilt.size()));
  EXPECT_NE(b.payload->fnv1a64(util::kFnv1aOffset), a_hash);
  // The old pin keeps its own bytes and hash.
  EXPECT_EQ(a.payload->bytes(), payload_of(48, 0x11));
  EXPECT_EQ(a.payload->fnv1a64(util::kFnv1aOffset), a_hash);
  // Later hits return the replacement.
  auto c = store.get_or_build(key_of(1), 0, [] { return payload_of(48, 0x22); });
  EXPECT_EQ(c.payload.get(), b.payload.get());
}

TEST(TileStore, VerifyOnHitCleanHitsMatchStoredBytes) {
  TileStore::Options opts;
  opts.verify_on_hit = true;
  TileStore store(opts);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return payload_of(80, 0x5C);
  };
  auto first = store.get_or_build(key_of(9), 0, build);
  auto second = store.get_or_build(key_of(9), 0, build);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.collision);
  EXPECT_EQ(builds, 2);  // verify mode rebuilds on the hit to compare
  EXPECT_EQ(first.payload.get(), second.payload.get());  // original kept
  EXPECT_EQ(store.collisions(), 0u);
}

TEST(TileStore, ZeroBudgetIsBuildPassThrough) {
  TileStore::Options opts;
  opts.byte_budget = 0;
  TileStore store(opts);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return payload_of(16, 3);
  };
  auto a = store.get_or_build(key_of(1), 0, build);
  auto b = store.get_or_build(key_of(1), 0, build);
  EXPECT_EQ(builds, 2);  // nothing was stored
  EXPECT_FALSE(b.hit);
  EXPECT_EQ(store.unique_entries(), 0u);
  EXPECT_EQ(store.bytes_resident(), 0u);
  EXPECT_EQ(*a.payload, *b.payload);
}

TEST(TileStore, ConcurrentGetOrBuildKeepsExactCounts) {
  // Four threads sweep one shared key set: every caller gets its builder's
  // bytes, and every call counts as exactly one hit or one miss.
  constexpr std::uint32_t kKeys = 256;
  constexpr int kThreads = 4;
  constexpr int kPasses = 8;
  auto bytes_of = [](std::uint32_t i) {
    return payload_of(32 + i % 61, static_cast<std::uint8_t>(i));
  };
  TileStore store;
  std::atomic<int> wrong{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int pass = 0; pass < kPasses; ++pass) {
          for (std::uint32_t i = 0; i < kKeys; ++i) {
            auto got = store.get_or_build(key_of(i),
                                          static_cast<std::uint64_t>(t),
                                          [&] { return bytes_of(i); });
            if (got.payload->bytes() != bytes_of(i)) ++wrong;
          }
        }
      });
    }
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(store.hits() + store.misses(),
            std::uint64_t{kKeys} * kThreads * kPasses);
  EXPECT_EQ(store.unique_entries(), kKeys);
  std::size_t payload_sum = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) payload_sum += bytes_of(i).size();
  EXPECT_EQ(store.bytes_resident(), payload_sum);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(TileStore, ConcurrentMissesBuildEachKeyOnce) {
  // Four threads released together sweep one shared key set with a
  // builder of codec-like cost, so they meet on keys still being built.
  // A caller that finds a key in flight waits for its payload: each key
  // is built, and counted as a miss, exactly once.
  constexpr std::uint32_t kKeys = 256;
  constexpr int kThreads = 4;
  constexpr int kPasses = 8;
  auto bytes_of = [](std::uint32_t i) {
    TileStore::Payload p(512);
    std::uint32_t x = i * 2654435761u + 1;
    for (int round = 0; round < 64; ++round) {
      for (auto& b : p) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<std::uint8_t>(b ^ (x >> 24));
      }
    }
    return p;
  };
  std::vector<TileStore::Payload> expected;
  for (std::uint32_t i = 0; i < kKeys; ++i) expected.push_back(bytes_of(i));
  TileStore store;
  std::atomic<int> builds{0};
  std::atomic<int> wrong{0};
  std::atomic<int> ready{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ++ready;
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int pass = 0; pass < kPasses; ++pass) {
          for (std::uint32_t i = 0; i < kKeys; ++i) {
            auto got = store.get_or_build(key_of(i),
                                          static_cast<std::uint64_t>(t), [&] {
                                            ++builds;
                                            return bytes_of(i);
                                          });
            if (got.payload->bytes() != expected[i]) ++wrong;
          }
        }
      });
    }
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(store.misses(), kKeys);
  EXPECT_EQ(builds.load(), static_cast<int>(kKeys));
  EXPECT_EQ(store.hits(), std::uint64_t{kKeys} * (kThreads * kPasses - 1));
  EXPECT_EQ(store.bytes_deduped(), store.hits() * 512);
  EXPECT_EQ(store.unique_entries(), kKeys);
}

TEST(TileStore, BuildFailureReachesWaitersAndLeavesKeyBuildable) {
  // The builder holds the key in flight until a second caller has joined
  // (its hit is counted before it waits), then throws: both callers see
  // the exception, nothing is stored, and the next lookup builds afresh.
  TileStore store;
  std::atomic<bool> building{false};
  auto failing_build = [&]() -> TileStore::Payload {
    building = true;
    while (store.hits() == 0) std::this_thread::yield();
    throw std::runtime_error("build failed");
  };
  std::atomic<int> caught{0};
  {
    std::jthread builder([&] {
      try {
        (void)store.get_or_build(key_of(5), 0, failing_build);
      } catch (const std::runtime_error&) {
        ++caught;
      }
    });
    while (!building) std::this_thread::yield();
    std::jthread waiter([&] {
      try {
        (void)store.get_or_build(key_of(5), 1, [] {
          ADD_FAILURE() << "a waiter never builds";
          return payload_of(8, 0);
        });
      } catch (const std::runtime_error&) {
        ++caught;
      }
    });
  }
  EXPECT_EQ(caught.load(), 2);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.cross_origin_hits(), 1u);
  EXPECT_EQ(store.unique_entries(), 0u);

  auto again =
      store.get_or_build(key_of(5), 0, [] { return payload_of(8, 9); });
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.payload->bytes(), payload_of(8, 9));
  EXPECT_EQ(store.misses(), 2u);
}

// -- replies in flight pin the store's entry ------------------------------

/// A one-client world whose region payloads live in `regions`' store; the
/// chunk cache uses a separate store so the region entry is the only one.
struct PinWorld {
  explicit PinWorld(TileStore::Options region_opts)
      : region_store(region_opts), regions(region_store) {
    WorldSetup setup;
    setup.image_size = 256;
    setup.levels = 3;
    setup.image_count = 1;
    setup.server_options.size_cache = &sizes;
    setup.server_options.region_cache = &regions;
    setup.server_options.chunk_cache = &chunks;
    world = std::make_unique<VizWorld>(setup);
    world->spawn_server_loops();
    entry = cached_pyramid_entry(setup.image_size, setup.image_seed,
                                 setup.levels);
  }

  /// The request every test sends, and the payload it must produce.
  static constexpr Request kRequest{
      .session_id = 1, .cx = 128, .cy = 128, .half = 32, .level = 3};
  std::vector<wavelet::TileRef> tiles(wavelet::ProgressiveEncoder& enc) const {
    return enc.take_region_tiles({kRequest.cx, kRequest.cy, kRequest.half},
                                 kRequest.level);
  }

  CompressedSizeCache sizes;
  TileStore region_store;
  RegionEncodeCache regions;
  CompressedChunkCache chunks;
  std::unique_ptr<VizWorld> world;
  PyramidEntry entry;
};

/// Open image 0 and send PinWorld::kRequest from client endpoint 0; the
/// caller's coroutine continues after the request is on the wire.
sim::Task<> open_and_request(sim::Endpoint& ep) {
  co_await ep.send(encode(OpenImage{
      .session_id = 1, .image_id = 0, .level = 3, .codec = 1}));
  sim::Message ack = co_await ep.recv();
  EXPECT_EQ(ack.kind, kOpenAck);
  co_await ep.send(encode(PinWorld::kRequest));
}

TEST(TileStore, PremeasuredReplyBodyIsTheStoredBlob) {
  PinWorld w(TileStore::Options{});
  std::shared_ptr<const util::Blob> body;
  auto client = [&]() -> sim::Task<> {
    sim::Endpoint& ep = w.world->client_endpoint(0);
    co_await open_and_request(ep);
    Reply reply = decode_reply(co_await ep.recv());
    EXPECT_TRUE(reply.premeasured);
    body = reply.body;
    co_await ep.send(encode_shutdown());
  };
  w.world->simulator().spawn(client());
  w.world->simulator().run();

  ASSERT_NE(body, nullptr);
  EXPECT_EQ(w.regions.misses(), 1u);
  // Look the same content up again: a hit on the one entry, and the reply
  // carried that very Blob, not a copy.
  wavelet::ProgressiveEncoder enc(*w.entry.pyramid, 16);
  std::vector<wavelet::TileRef> tiles = w.tiles(enc);
  std::shared_ptr<const util::Blob> stored =
      w.regions.encode(w.entry.content_hash, enc, tiles);
  EXPECT_EQ(w.regions.hits(), 1u);
  EXPECT_EQ(stored.get(), body.get());
  EXPECT_EQ(body->bytes(), enc.serialize_tiles(tiles));
}

TEST(TileStore, EvictionWhileReplyInFlightKeepsBodyAlive) {
  // A one-byte budget: any second entry evicts the region payload.
  TileStore::Options opts;
  opts.byte_budget = 1;
  PinWorld w(opts);
  bool checked = false;
  auto client = [&]() -> sim::Task<> {
    sim::Endpoint& ep = w.world->client_endpoint(0);
    co_await open_and_request(ep);
    // Let the reply arrive and sit unread in the mailbox.
    while (ep.available() == 0) co_await w.world->simulator().delay(1e-3);
    // In flight: the store's entry is pinned by the queued message alone.
    EXPECT_EQ(w.region_store.unique_entries(), 1u);
    EXPECT_EQ(w.region_store.pinned_entries(), 1u);
    // Evict it under the pin.
    (void)w.region_store.insert(key_of(77), 0, payload_of(1, 0));
    EXPECT_EQ(w.region_store.evictions(), 1u);
    EXPECT_EQ(w.region_store.pinned_entries(), 0u);

    Reply reply = decode_reply(co_await ep.recv());
    wavelet::ProgressiveEncoder enc(*w.entry.pyramid, 16);
    EXPECT_EQ(reply.body->bytes(), enc.serialize_tiles(w.tiles(enc)));
    checked = true;
    co_await ep.send(encode_shutdown());
  };
  w.world->simulator().spawn(client());
  w.world->simulator().run();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace avf::viz
