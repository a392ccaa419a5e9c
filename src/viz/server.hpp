// Server component of the Active Visualization application: stores images
// as wavelet pyramids, serves progressive foveal requests, compresses reply
// payloads with the session codec (paper §2.1).
//
// The server is multi-session: every protocol message carries a session id,
// one `serve()` loop runs per connected endpoint, and all loops share one
// session map plus the caches its owner attached (Options) — so N clients
// foveating the same images reuse each other's encode/compress work.
// Per-session protocol violations (request for a session never opened,
// unknown image, malformed payload of a known kind) produce a `kError`
// reply to the offending client; the other sessions keep streaming.
//
// CPU cost model (simulated ops, DESIGN.md §5): a fixed per-request cost,
// a per-coefficient region-extraction cost, and the codec's per-byte
// compression cost.  Compression output sizes are *real* codec output; an
// attached size cache avoids redoing identical compressions across
// requests and worlds (the payload is then shipped raw with the wire size
// forced to the cached compressed size — timing-identical, cycles saved).
// Without one (the default) every reply is really compressed: fidelity
// mode, which traces identically.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

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

class VizServer {
 public:
  struct Options {
    int tile_size = 16;
    double fixed_request_ops = 9e6;        // ~20 ms per request
    double encode_ops_per_coeff = 20.0;    // pyramid traversal + packing
    // The caches are owned by the caller (ServerCaches in viz/world.hpp
    // attaches a bundle); each saves host cycles only, never simulated
    // time or payload bytes.
    /// Premeasured replies: ship raw bytes with the cached compressed size
    /// as wire size; nullptr = every reply is really compressed and really
    /// decompressed (fidelity mode).
    CompressedSizeCache* size_cache = nullptr;
    /// Tile-serialization reuse across sessions; nullptr = every request
    /// serializes its region from the pyramid.  Hits are byte-identical to
    /// the uncached path by construction.
    RegionEncodeCache* region_cache = nullptr;
    /// Real-compression reuse: measures a size-cache miss, and compresses
    /// every reply in fidelity mode; nullptr = the codec runs each time.
    CompressedChunkCache* chunk_cache = nullptr;
  };

  VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint);
  VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint, Options options);

  /// Register a pre-decomposed (possibly shared) pyramid under its
  /// content hash, the tile-store key prefix.  The caller computes the hash
  /// (the world's pyramid memo caches it alongside the pyramid, so
  /// profiling sweeps do not rehash the same coefficients per world).
  /// Registering an id again replaces the image.
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
    /// Key prefix of the image's region entries: its content hash.
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
