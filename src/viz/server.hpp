// Server component of the Active Visualization application: stores images
// as wavelet pyramids, serves progressive foveal requests, compresses reply
// payloads with the session codec (paper §2.1).
//
// The server is multi-session: every protocol message carries a session id,
// one `serve()` loop runs per connected endpoint, and all loops share one
// session map plus the process-wide caches — so N clients foveating the
// same images reuse each other's encode/compress work.  Per-session
// protocol violations (request for a session never opened, unknown image,
// malformed payload of a known kind) produce a `kError` reply to the
// offending client; the other sessions keep streaming.
//
// CPU cost model (simulated ops, DESIGN.md §5): a fixed per-request cost,
// a per-coefficient region-extraction cost, and the codec's per-byte
// compression cost.  Compression output sizes are *real* codec output; a
// process-wide size cache avoids redoing identical compressions across
// profiling runs (the payload is then shipped raw with the wire size forced
// to the cached compressed size — timing-identical, cycles saved).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "codec/codec.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/link.hpp"
#include "sim/task.hpp"
#include "util/annotations.hpp"
#include "util/blob.hpp"
#include "util/mutex.hpp"
#include "viz/caches.hpp"
#include "viz/protocol.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {

/// Process-wide cache: (FNV-1a(payload), codec) -> compressed size.
///
/// The key is the genuine (fingerprint, codec) pair — an earlier revision
/// folded the codec id into a single integer as fingerprint*prime + id,
/// which collides whenever two payload fingerprints differ by a multiple of
/// the prime's inverse; a collision silently returns the wrong codec's
/// output size.  The cache is also bounded: entries beyond `max_entries`
/// evict the oldest insertion (FIFO), so long profiling campaigns cannot
/// grow the process-wide singleton without bound.
///
/// Storage is sharded 16 ways by fingerprint once `max_entries` is large
/// enough to split (>= 16 per shard), so parallel profiling sweeps and the
/// multi-session serve path stop serializing on a single mutex.  Each shard
/// keeps its own FIFO bound of max_entries/shards; counters and size()
/// aggregate across shards.  Small caches (tests, tight bounds) collapse to
/// one shard and behave exactly like the unsharded implementation.
class CompressedSizeCache {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;
  static constexpr std::size_t kMaxShards = 16;

  CompressedSizeCache() : CompressedSizeCache(kDefaultMaxEntries) {}
  explicit CompressedSizeCache(std::size_t max_entries);

  /// Content fingerprint used as the payload half of the key:
  /// FNV-1a(payload) ^ size.  Exposed so callers issuing a lookup-then-store
  /// pair can hash the payload once.
  static std::uint64_t fingerprint(codec::BytesView payload);
  /// The same value from a Blob's memoized FNV-1a continuation: O(1) once
  /// the Blob has been hashed from the offset basis.
  static std::uint64_t fingerprint(const util::Blob& payload);

  std::optional<std::size_t> lookup(codec::CodecId id,
                                    codec::BytesView payload) const;
  std::optional<std::size_t> lookup(codec::CodecId id,
                                    std::uint64_t fingerprint) const;
  void store(codec::CodecId id, codec::BytesView payload, std::size_t size);
  void store(codec::CodecId id, std::uint64_t fingerprint, std::size_t size);

  /// One shard's contribution to the aggregate counters, captured under
  /// that shard's lock.  size()/hits()/misses()/evictions() sum these
  /// shard-atomic snapshots; the total is a sum of per-shard-consistent
  /// values, not a single instant across shards (concurrent writers may
  /// land between two shard reads — each shard's own numbers stay exact).
  struct ShardCounters {
    std::size_t entries = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  };

  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }
  std::size_t shard_count() const { return shard_count_; }
  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t evictions() const;

  /// Shared instance used by default; individual servers may use their own.
  static CompressedSizeCache& global();

 private:
  struct Key {
    std::uint64_t fingerprint;
    codec::CodecId codec;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix-style mix over both halves of the pair.
      std::uint64_t h = k.fingerprint + 0x9e3779b97f4a7c15ULL *
                        (static_cast<std::uint64_t>(k.codec) + 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };
  struct Shard {
    // Each shard is shared by every concurrently simulated world during a
    // parallel profiling sweep, so all map/counter access locks.
    mutable util::Mutex mutex;
    std::unordered_map<Key, std::size_t, KeyHash> sizes
        AVF_GUARDED_BY(mutex);
    std::deque<Key> insertion_order AVF_GUARDED_BY(mutex);  // FIFO eviction
    mutable std::size_t hits AVF_GUARDED_BY(mutex) = 0;
    mutable std::size_t misses AVF_GUARDED_BY(mutex) = 0;
    std::size_t evictions AVF_GUARDED_BY(mutex) = 0;

    /// Counter snapshot under this shard's lock.
    ShardCounters counters() const AVF_EXCLUDES(mutex);
  };

  Shard& shard_for(std::uint64_t fingerprint) const;

  std::size_t max_entries_;
  std::size_t shard_count_;
  std::size_t shard_max_;  // per-shard FIFO bound
  mutable std::array<Shard, kMaxShards> shards_;
};

class VizServer {
 public:
  struct Options {
    int tile_size = 16;
    double fixed_request_ops = 9e6;        // ~20 ms per request
    double encode_ops_per_coeff = 20.0;    // pyramid traversal + packing
    /// nullptr disables premeasured replies: every reply is really
    /// compressed and really decompressed (used by fidelity tests).
    CompressedSizeCache* size_cache = &CompressedSizeCache::global();
    /// Shared tile-serialization reuse across sessions; nullptr = every
    /// request serializes its region from the pyramid.  Hits are
    /// byte-identical to the uncached path by construction.
    RegionEncodeCache* region_cache = &RegionEncodeCache::global();
    /// Shared real-compression reuse (only exercised when size_cache is
    /// null and replies must carry genuine compressed bytes).
    CompressedChunkCache* chunk_cache = &CompressedChunkCache::global();
    /// Baseline emulation for dedup measurements: key region payloads by
    /// image *identity* (image id) instead of pyramid content, recreating
    /// the old pin-per-pyramid behavior where identical content stored as
    /// distinct images was cached per image.  Traces are unchanged either
    /// way (caches save cycles only); only resident store bytes differ.
    /// Meaningful with a per-world store — image ids are only unique
    /// within one server.
    bool identity_keyed_regions = false;
  };

  VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint);
  VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint, Options options);

  /// Register a pre-decomposed (possibly shared) pyramid under its
  /// content hash, the tile-store key prefix.  The caller computes the hash
  /// (the world's pyramid memo caches it alongside the pyramid, so
  /// profiling sweeps do not rehash the same coefficients per world).
  void add_image(std::uint32_t id,
                 std::shared_ptr<const wavelet::Pyramid> pyramid,
                 const util::Hash128& content_hash);

  /// Serve loop for one endpoint; returns when a kShutdown message arrives
  /// on it.  Multiple serve() loops may run concurrently (one per client
  /// channel) against the shared session map and caches.
  sim::Task<> serve(sim::Endpoint& endpoint);

  /// Serve loop on the primary endpoint (single-client compatibility).
  sim::Task<> run() { return serve(endpoint_); }

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t raw_bytes_encoded() const { return raw_bytes_encoded_; }
  std::uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  /// Per-session protocol violations answered with kError (plus control
  /// messages for unknown sessions, which are dropped with a log line).
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  struct StoredImage {
    std::shared_ptr<const wavelet::Pyramid> pyramid;
    /// Content hash keying the tile store (or an identity hash when
    /// Options::identity_keyed_regions emulates the old baseline).
    util::Hash128 content_hash;
    int levels = 0;
  };
  struct Session {
    std::uint32_t image_id = 0;
    std::shared_ptr<const wavelet::Pyramid> pyramid;
    util::Hash128 content_hash;
    std::unique_ptr<wavelet::ProgressiveEncoder> encoder;
    codec::CodecId codec = codec::CodecId::kNone;
    int level = 0;
  };

  sim::Task<> handle_open(sim::Endpoint& endpoint, const OpenImage& open);
  sim::Task<> handle_request(sim::Endpoint& endpoint, const Request& request);
  sim::Task<> send_error(sim::Endpoint& endpoint, std::uint32_t session_id,
                         ErrorCode code);

  /// Pin a session for the duration of one handler: the shared_ptr keeps
  /// the Session alive even if another serve loop re-opens the same id
  /// while this handler is suspended at a co_await (the map then points at
  /// a *fresh* Session; the in-flight handler finishes against the old one
  /// instead of dereferencing a replaced encoder).  nullptr if unknown.
  std::shared_ptr<Session> pin_session(std::uint32_t session_id)
      AVF_EXCLUDES(sessions_mutex_);
  /// Install (or replace) the session for `session_id`.
  void install_session(std::uint32_t session_id,
                       std::shared_ptr<Session> session)
      AVF_EXCLUDES(sessions_mutex_);

  sandbox::Sandbox& box_;
  sim::Endpoint& endpoint_;
  Options options_;
  std::map<std::uint32_t, StoredImage> images_;
  // The session map is shared by every per-client serve() loop.  Handlers
  // never hold the lock across a co_await: they pin the shared_ptr under
  // the lock and run against the pinned object.  Sessions are owned
  // shared_ptr so a concurrent re-open replaces the map entry without
  // invalidating a suspended handler's session.
  mutable util::Mutex sessions_mutex_;
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions_
      AVF_GUARDED_BY(sessions_mutex_);
  std::uint64_t requests_served_ = 0;
  std::uint64_t raw_bytes_encoded_ = 0;
  std::uint64_t wire_bytes_sent_ = 0;
  std::uint64_t protocol_errors_ = 0;
};

}  // namespace avf::viz
