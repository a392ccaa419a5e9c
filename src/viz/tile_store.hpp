// Content-addressed payload store for the Active Visualization server
// (cromfs-style: hash once, share store-wide).
//
// Every cacheable server payload — serialized wavelet-tile regions,
// compressed chunks, compressed sizes — is keyed by a deterministic seeded
// 128-bit content hash (util::Hasher128) and stored exactly once, shared
// across every image, pyramid, session and world that uses the store.
// This is what makes server memory scale with unique content rather than
// client or image count: two catalog images containing the same tiles
// resolve to the same entries, whereas the previous RegionEncodeCache
// keyed on pyramid *pointer* and pinned one pyramid per entry, so
// identical content stored as distinct images was duplicated per image.
//
// A store has one owner (a cache layer's private store, or a ServerCaches
// bundle) and lives exactly as long as it: there is no shared instance,
// and an owner that wants a fresh store drops the old one.
//
// Contracts (shared with the thin cache layers in viz/caches.hpp):
//
//  - Cycles only: the store never affects simulated time or payload bytes.
//    Hits return the byte-identical payload the builder would produce (the
//    key is derived from content the builder is a pure function of), so
//    cached and uncached runs trace identically.
//  - Shared immutable payloads: an entry is a util::Blob, built once and
//    handed out as shared_ptr<const util::Blob>.  The viz server puts that
//    very pointer into the reply message body (sim::Message::body), so the
//    bytes travel from the store to the client's decoder without a copy,
//    and the Blob's memoized FNV-1a continuation serves every request's
//    size-layer key and the client's payload hash in O(1) after the first.
//  - Pinned hits: lookups return shared_ptr pins; eviction drops the store
//    reference but an in-flight reply's pin keeps the bytes alive until the
//    client has read them (the session-reopen lesson, applied to payloads).
//  - Byte budget + second-chance eviction: resident payload bytes are
//    bounded by Options::byte_budget; a CLOCK hand sweeps insertion order,
//    giving recently hit entries one more revolution before evicting.
//  - verify_on_hit: debug mode that rebuilds on every hit and byte-compares
//    against the stored payload — the guard against 128-bit collisions.  A
//    mismatch is counted, the entry replaced, and the *rebuilt* (correct)
//    payload returned, so even a collision cannot corrupt a trace.
//  - Determinism: hashing is seeded and wall-clock-free; the store holds
//    unordered maps for lookup only (never iterated — the CLOCK ring is an
//    ordered vector), so no host-side state leaks into traces.
//
// Storage shards kMaxShards ways by key high bits once the byte budget is
// large enough that each shard stays useful (>= kMinShardBudget each), so
// many serve loops and parallel profiling sweeps do not serialize on one
// mutex.  Small budgets (tests) collapse to one shard with exact CLOCK
// semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/blob.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"

namespace avf::viz {

class TileStore {
 public:
  using Key = util::Hash128;
  /// What a builder returns (== wavelet/codec Bytes); the store wraps it
  /// in a Blob without copying.
  using Payload = std::vector<std::uint8_t>;
  using BlobPtr = std::shared_ptr<const util::Blob>;

  static constexpr std::size_t kDefaultByteBudget = 64ull << 20;
  static constexpr std::size_t kMaxShards = 16;
  static constexpr std::size_t kMinShardBudget = 1ull << 20;

  struct Options {
    /// Resident payload-byte bound (0 = store nothing: build pass-through).
    std::size_t byte_budget = kDefaultByteBudget;
    /// Debug collision guard: rebuild on every hit and byte-compare.
    bool verify_on_hit = false;
  };

  TileStore() : TileStore(Options{}) {}
  explicit TileStore(Options options);

  /// Outcome of one get_or_build: the pinned payload plus what happened.
  struct Lookup {
    BlobPtr payload;
    bool hit = false;        ///< an existing entry was reused
    bool collision = false;  ///< verify_on_hit caught a hash collision
  };

  /// Hit path: return `key`'s payload (marking it recently used) or build,
  /// insert, and return it.  `origin_tag` is an opaque caller label (the
  /// viz server passes the image id) recorded at insertion; a hit whose
  /// entry was inserted under a different tag counts as a cross-origin hit
  /// — the counter that proves cross-image dedup happened.  `build` must
  /// be a pure function of the content `key` was derived from.
  template <typename BuildFn>
  Lookup get_or_build(const Key& key, std::uint64_t origin_tag,
                      BuildFn&& build) {
    if (BlobPtr found = find(key, origin_tag)) {
      if (!verify_on_hit()) return {std::move(found), true, false};
      Payload rebuilt = build();
      if (found->bytes() == rebuilt) return {std::move(found), true, false};
      return {replace_after_collision(key, origin_tag, std::move(rebuilt)),
              true, true};
    }
    return {insert(key, origin_tag, build()), false, false};
  }

  /// Lookup half of get_or_build (counts a hit or a miss).
  BlobPtr find(const Key& key, std::uint64_t origin_tag);
  /// Insert half: stores `payload` (unless an entry raced in first, which
  /// wins) and evicts down to the byte budget.  Returns the stored pin.
  BlobPtr insert(const Key& key, std::uint64_t origin_tag, Payload&& payload);

  // -- memory + dedup counters (aggregated across shards; each shard's
  //    contribution is snapshotted under its own lock) -------------------
  std::size_t bytes_resident() const;   ///< payload bytes currently stored
  std::size_t unique_entries() const;   ///< distinct content entries
  /// Entries some holder besides the store still pins: a caller of
  /// find/get_or_build, or a reply in flight whose message body is the
  /// entry's Blob (until the client has decoded it).
  std::size_t pinned_entries() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::uint64_t bytes_deduped() const;  ///< cumulative hit payload bytes
  std::uint64_t bytes_evicted() const;
  std::uint64_t cross_origin_hits() const;
  std::uint64_t collisions() const;

  std::size_t byte_budget() const { return options_.byte_budget; }
  bool verify_on_hit() const { return options_.verify_on_hit; }
  std::size_t shard_count() const { return shard_count_; }

 private:
  struct Entry {
    BlobPtr payload;
    std::uint64_t origin_tag = 0;
    std::size_t ring_slot = 0;
    bool referenced = true;  // CLOCK second-chance bit, set on hit
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.lo);  // already avalanche-mixed
    }
  };
  struct ShardCounters {
    std::size_t bytes = 0;
    std::size_t entries = 0;
    std::size_t pinned = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_deduped = 0;
    std::uint64_t bytes_evicted = 0;
    std::uint64_t cross_origin_hits = 0;
    std::uint64_t collisions = 0;
  };
  struct Shard {
    mutable util::Mutex mutex;
    std::unordered_map<Key, Entry, KeyHasher> entries AVF_GUARDED_BY(mutex);
    /// CLOCK ring: insertion-ordered keys, swap-removed on eviction.  The
    /// only structure ever iterated (ordered vector — the unordered map is
    /// lookup-only, per src.unordered-iteration).
    std::vector<Key> ring AVF_GUARDED_BY(mutex);
    std::size_t hand AVF_GUARDED_BY(mutex) = 0;
    std::size_t bytes AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t hits AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t misses AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t bytes_deduped AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t bytes_evicted AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t cross_origin_hits AVF_GUARDED_BY(mutex) = 0;
    std::uint64_t collisions AVF_GUARDED_BY(mutex) = 0;

    void evict_to_budget(std::size_t budget) AVF_REQUIRES(mutex);
    ShardCounters counters() const AVF_EXCLUDES(mutex);
  };

  /// Installs a *fresh* Blob for the rebuilt bytes, so no memoized hash
  /// of the replaced entry carries over.
  BlobPtr replace_after_collision(const Key& key, std::uint64_t tag,
                                  Payload&& rebuilt);

  Shard& shard_for(const Key& key) const {
    // High bits pick the shard; the map hash uses the (mixed) low word, so
    // shard choice and bucket choice stay decorrelated.
    return shards_[(key.hi >> 59) % shard_count_];
  }

  Options options_;
  std::size_t shard_count_;
  std::size_t shard_budget_;
  mutable std::array<Shard, kMaxShards> shards_;
};

}  // namespace avf::viz
