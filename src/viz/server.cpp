#include "viz/server.hpp"

#include <stdexcept>

#include "util/fmt.hpp"
#include "util/logging.hpp"

namespace avf::viz {

VizServer::VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint)
    : VizServer(box, endpoint, Options{}) {}

VizServer::VizServer(sandbox::Sandbox& box, sim::Endpoint& endpoint,
                     Options options)
    : box_(box), endpoint_(endpoint), options_(options) {}

void VizServer::add_image(std::uint32_t id,
                          std::shared_ptr<const wavelet::Pyramid> pyramid,
                          const util::Hash128& content_hash) {
  StoredImage stored;
  stored.levels = pyramid->levels();
  stored.pyramid = std::move(pyramid);
  stored.content_hash = content_hash;
  images_[id] = std::move(stored);
}

std::shared_ptr<VizServer::Session> VizServer::pin_session(
    std::uint32_t session_id) {
  util::MutexLock lock(sessions_mutex_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

void VizServer::install_session(std::uint32_t session_id,
                                std::shared_ptr<Session> session) {
  util::MutexLock lock(sessions_mutex_);
  // Re-opening an existing id installs a *fresh* Session object (fresh
  // sent-state) — exactly what a client fetching its next image does.  A
  // handler suspended mid-request on the old session keeps its pin, so the
  // replacement never invalidates in-flight state.
  sessions_.insert_or_assign(session_id, std::move(session));
}

sim::Task<> VizServer::send_error(sim::Endpoint& endpoint,
                                  std::uint32_t session_id, ErrorCode code) {
  ++protocol_errors_;
  util::log_debug("viz.server", box_.host().simulator().now(),
                  "session {} protocol error {}", session_id,
                  static_cast<int>(code));
  ErrorReply err;
  err.session_id = session_id;
  err.code = code;
  co_await box_.send(endpoint, encode(err));
}

sim::Task<> VizServer::serve(sim::Endpoint& endpoint) {
  for (;;) {
    sim::Message msg = co_await endpoint.recv();
    switch (msg.kind) {
      case kOpenImage: {
        // A malformed payload of a known kind is a per-session fault, not a
        // server bug: answer kError (session 0 — the id is unreadable) and
        // keep serving every other session.  (Decoding happens outside any
        // co_await so a plain try/catch suffices; co_await is not permitted
        // inside an exception handler.)
        std::optional<OpenImage> open;
        try {
          open = decode_open_image(msg);
        } catch (const std::runtime_error&) {
        }
        if (!open) {
          co_await send_error(endpoint, 0, ErrorCode::kBadMessage);
          break;
        }
        co_await handle_open(endpoint, *open);
        break;
      }
      case kRequest: {
        std::optional<Request> request;
        try {
          request = decode_request(msg);
        } catch (const std::runtime_error&) {
        }
        if (!request) {
          co_await send_error(endpoint, 0, ErrorCode::kBadMessage);
          break;
        }
        co_await handle_request(endpoint, *request);
        break;
      }
      case kSetCodec: {
        std::optional<SetCodec> set;
        try {
          set = decode_set_codec(msg);
        } catch (const std::runtime_error&) {
        }
        if (!set) {
          co_await send_error(endpoint, 0, ErrorCode::kBadMessage);
          break;
        }
        std::shared_ptr<Session> session = pin_session(set->session_id);
        if (session == nullptr) {
          // Fire-and-forget control: count + log, no reply (the client is
          // not waiting on one).
          ++protocol_errors_;
          util::log_debug("viz.server", msg.delivered_at,
                          "set-codec for unknown session {}",
                          set->session_id);
        } else {
          session->codec = static_cast<codec::CodecId>(set->codec);
          util::log_debug("viz.server", msg.delivered_at,
                          "session {} codec -> {}", set->session_id,
                          codec::codec_name(session->codec));
        }
        break;
      }
      case kShutdown:
        co_return;
      default:
        throw std::runtime_error(
            util::format("viz server: unexpected message kind {}", msg.kind));
    }
  }
}

sim::Task<> VizServer::handle_open(sim::Endpoint& endpoint,
                                   const OpenImage& open) {
  auto it = images_.find(open.image_id);
  if (it == images_.end()) {
    co_await send_error(endpoint, open.session_id, ErrorCode::kUnknownImage);
    co_return;
  }
  co_await box_.compute(options_.fixed_request_ops);
  auto session = std::make_shared<Session>();
  session->image_id = open.image_id;
  session->pyramid = it->second.pyramid;
  session->content_hash = it->second.content_hash;
  session->encoder = std::make_unique<wavelet::ProgressiveEncoder>(
      *it->second.pyramid, options_.tile_size);
  session->codec = static_cast<codec::CodecId>(open.codec);
  session->level = open.level;
  install_session(open.session_id, std::move(session));

  OpenAck ack;
  ack.session_id = open.session_id;
  ack.width = static_cast<std::uint16_t>(it->second.pyramid->full_width());
  ack.height = static_cast<std::uint16_t>(it->second.pyramid->full_height());
  ack.levels = static_cast<std::uint8_t>(it->second.levels);
  co_await box_.send(endpoint, encode(ack));
}

sim::Task<> VizServer::handle_request(sim::Endpoint& endpoint,
                                      const Request& request) {
  // Pin before the first co_await: the reference stays valid even if this
  // session id is concurrently re-opened while we are suspended.
  std::shared_ptr<Session> pinned = pin_session(request.session_id);
  if (pinned == nullptr) {
    co_await send_error(endpoint, request.session_id, ErrorCode::kNoSession);
    co_return;
  }
  Session& session = *pinned;
  ++requests_served_;
  co_await box_.compute(options_.fixed_request_ops);

  wavelet::Region region{request.cx, request.cy, request.half};
  std::vector<wavelet::TileRef> tiles =
      session.encoder->take_region_tiles(region, request.level);
  // Serialization reuse: the tile list *is* the (region, level, sent-state)
  // key, so interleaved sessions at the same point in their progressive
  // walk share the payload.  Hits are byte-identical by construction.
  std::shared_ptr<const util::Blob> raw_shared =
      options_.region_cache != nullptr
          ? options_.region_cache->encode(session.content_hash,
                                          *session.encoder, tiles,
                                          session.image_id)
          : std::make_shared<const util::Blob>(
                session.encoder->serialize_tiles(tiles));
  const util::Blob& raw = *raw_shared;
  raw_bytes_encoded_ += raw.size();
  // Region extraction cost: proportional to coefficients serialized.  The
  // simulated cost is charged whether or not the host-side cache hit —
  // caches save real cycles, never simulated time.
  co_await box_.compute(options_.encode_ops_per_coeff *
                        static_cast<double>(raw.size() / 2));

  const codec::Codec& codec = codec::codec_for(session.codec);
  Reply reply;
  reply.session_id = request.session_id;
  reply.complete = session.encoder->fully_sent(request.level);
  reply.codec = static_cast<std::uint8_t>(session.codec);
  reply.raw_len = static_cast<std::uint32_t>(raw.size());

  // Compression: always charge the codec's CPU cost; use the size cache to
  // avoid redoing byte-identical compressions (timing is unchanged).
  co_await box_.compute(codec.compress_ops(raw.size()));
  if (options_.size_cache != nullptr) {
    // Ship raw with the compressed size as wire size, so the client can
    // skip the real decompression too.  The key is O(1) after the first
    // request for this payload (the Blob memoizes its hash).
    reply.premeasured = true;
    reply.wire_len = static_cast<std::uint32_t>(
        options_.size_cache->compressed_size(session.codec, raw,
                                             options_.chunk_cache,
                                             session.image_id));
    reply.body = std::move(raw_shared);
  } else {
    // Fidelity mode: the reply carries genuine compressed bytes.  The
    // chunk cache still deduplicates the real compression work across
    // sessions asking for the same tiles.
    reply.premeasured = false;
    reply.body = options_.chunk_cache != nullptr
                     ? options_.chunk_cache->compress(session.codec, raw,
                                                      session.image_id)
                     : std::make_shared<const util::Blob>(codec.compress(raw));
    reply.wire_len = static_cast<std::uint32_t>(reply.body->size());
  }
  wire_bytes_sent_ += reply.wire_len;
  co_await box_.send(endpoint, encode(reply));
}

}  // namespace avf::viz
