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
//    an unordered map for lookup only (never iterated — the CLOCK ring is an
//    ordered vector), so no host-side state leaks into traces.
//
// One util::Mutex guards the whole store: its map, its CLOCK ring, its
// builds in flight and its counters.  Builders run outside the lock, so
// the codec never serializes callers; the lock covers a map probe, counter
// bumps and, on insert, the eviction sweep.
//
// Each missing key is built once.  The first caller to miss a key records
// a build in flight (a std::shared_future of its payload) before it
// builds; a caller that finds the key in flight waits for that payload
// and counts as a hit, and a builder's exception reaches every waiter.
// So concurrent callers count exactly one miss per distinct key, as one
// caller would.  A builder must not look up a key whose build waits on its
// own (the layers never nest deeper than size -> chunk).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <optional>
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

  /// Hit path: return `key`'s payload (marking it recently used), wait
  /// for another caller's build of it, or build, insert, and return it.
  /// `origin_tag` is an opaque caller label (the viz server passes the
  /// image id) recorded at insertion; a hit whose entry was inserted (or
  /// is being built) under a different tag counts as a cross-origin hit —
  /// the counter that proves cross-image dedup happened.  `build` must be
  /// a pure function of the content `key` was derived from; what it throws
  /// propagates to this caller and to every caller waiting on the build.
  template <typename BuildFn>
  Lookup get_or_build(const Key& key, std::uint64_t origin_tag,
                      BuildFn&& build) {
    Claim claim = claim_or_wait(key, origin_tag);
    if (claim.build) {
      BlobPtr stored;
      try {
        stored = insert(key, origin_tag, build());
      } catch (...) {
        settle(key, *claim.build, nullptr, std::current_exception());
        throw;
      }
      settle(key, *claim.build, stored, nullptr);
      return {std::move(stored), false, false};
    }
    if (!verify_on_hit()) return {std::move(claim.payload), true, false};
    Payload rebuilt = build();
    if (claim.payload->bytes() == rebuilt) {
      return {std::move(claim.payload), true, false};
    }
    return {replace_after_collision(key, origin_tag, std::move(rebuilt)),
            true, true};
  }

  /// Insert half of get_or_build: stores `payload` (unless an entry is
  /// already resident, which wins) and evicts down to the byte budget.
  /// Returns the stored pin.
  BlobPtr insert(const Key& key, std::uint64_t origin_tag, Payload&& payload)
      AVF_EXCLUDES(mutex_);

  // -- memory + dedup counters ------------------------------------------
  /// Payload bytes currently stored.
  std::size_t bytes_resident() const AVF_EXCLUDES(mutex_);
  /// Distinct content entries.
  std::size_t unique_entries() const AVF_EXCLUDES(mutex_);
  /// Entries some holder besides the store still pins: a caller of
  /// find/get_or_build, or a reply in flight whose message body is the
  /// entry's Blob (until the client has decoded it).
  std::size_t pinned_entries() const AVF_EXCLUDES(mutex_);
  std::uint64_t hits() const AVF_EXCLUDES(mutex_);
  std::uint64_t misses() const AVF_EXCLUDES(mutex_);
  std::uint64_t evictions() const AVF_EXCLUDES(mutex_);
  /// Cumulative hit payload bytes.
  std::uint64_t bytes_deduped() const AVF_EXCLUDES(mutex_);
  std::uint64_t bytes_evicted() const AVF_EXCLUDES(mutex_);
  std::uint64_t cross_origin_hits() const AVF_EXCLUDES(mutex_);
  std::uint64_t collisions() const AVF_EXCLUDES(mutex_);

  std::size_t byte_budget() const { return options_.byte_budget; }
  bool verify_on_hit() const { return options_.verify_on_hit; }

 private:
  struct Entry {
    BlobPtr payload;
    std::uint64_t origin_tag = 0;
    bool referenced = true;  // CLOCK second-chance bit, set on hit
  };
  /// A build in flight: its payload once built, and the builder's tag.
  struct InFlight {
    std::shared_future<BlobPtr> payload;
    std::uint64_t origin_tag = 0;
  };
  /// What claim_or_wait found: a payload (resident, or built by another
  /// caller), or a miss this caller must build and settle.
  struct Claim {
    BlobPtr payload;
    std::optional<std::promise<BlobPtr>> build;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.lo);  // already avalanche-mixed
    }
  };

  /// Counts a hit or a miss.  A miss records a build in flight and hands
  /// its promise to the caller; a key already in flight blocks, outside
  /// the lock, until its builder settles it (rethrowing its exception).
  Claim claim_or_wait(const Key& key, std::uint64_t origin_tag)
      AVF_EXCLUDES(mutex_);
  /// Ends `key`'s build in flight and wakes its waiters with `payload`, or
  /// with `error` when the build threw.
  void settle(const Key& key, std::promise<BlobPtr>& build, BlobPtr payload,
              std::exception_ptr error) AVF_EXCLUDES(mutex_);
  /// Installs a *fresh* Blob for the rebuilt bytes, so no memoized hash
  /// of the replaced entry carries over.
  BlobPtr replace_after_collision(const Key& key, std::uint64_t tag,
                                  Payload&& rebuilt) AVF_EXCLUDES(mutex_);
  void evict_to_budget() AVF_REQUIRES(mutex_);

  Options options_;
  mutable util::Mutex mutex_;
  std::unordered_map<Key, Entry, KeyHasher> entries_ AVF_GUARDED_BY(mutex_);
  /// CLOCK ring: insertion-ordered keys, swap-removed on eviction.  The
  /// only structure ever iterated (ordered vector — the unordered map is
  /// lookup-only, per src.unordered-iteration).
  std::vector<Key> ring_ AVF_GUARDED_BY(mutex_);
  /// Keys being built, lookup-only like entries_.
  std::unordered_map<Key, InFlight, KeyHasher> in_flight_
      AVF_GUARDED_BY(mutex_);
  std::size_t hand_ AVF_GUARDED_BY(mutex_) = 0;
  std::size_t bytes_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t bytes_deduped_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t bytes_evicted_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t cross_origin_hits_ AVF_GUARDED_BY(mutex_) = 0;
  std::uint64_t collisions_ AVF_GUARDED_BY(mutex_) = 0;
};

}  // namespace avf::viz
