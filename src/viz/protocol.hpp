// Wire protocol of the Active Visualization application (paper §2.1/§4.1).
//
// The client drives a request/reply loop: it opens an image session, then
// repeatedly requests the (growing) foveal square up to a resolution level;
// the server replies with the incremental wavelet tiles, compressed with
// the session codec.  A separate control message switches the compression
// type at run time — the transition action in Figure 2
// (`notify(env.server, new_control.c)`).
//
// Every message carries a `session_id` so one server endpoint loop can
// multiplex many concurrent client sessions (the multi-client regime the
// paper's evaluation hints at but the single-session seed could not
// simulate).  Session ids are client-chosen, non-zero, and unique per
// connection; the server echoes them on replies so a client can assert it
// is not reading another session's traffic.  `kError` replaces the old
// fatal server throw on per-session protocol violations: the offending
// session gets an error reply and every other session keeps streaming.
//
// A kReply carries a fixed 15-byte inline header (session_id, three flag
// bytes, raw_len, wire_len) in Message::payload and its tile bytes in
// Message::body: the server's shared payload Blob travels to the client
// as-is, and the wire size is unchanged (header + body + framing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "sim/link.hpp"
#include "util/blob.hpp"

namespace avf::viz {

enum MsgKind : int {
  kOpenImage = 1,  ///< client->server: session_id, image_id, level, codec
  kOpenAck = 2,    ///< server->client: session_id, width, height, levels
  kRequest = 3,    ///< client->server: session_id, cx, cy, half, level
  kReply = 4,      ///< server->client: session_id, tiles (compressed or premeasured)
  kSetCodec = 5,   ///< client->server control: session_id, codec
  kShutdown = 6,   ///< stop the server loop for this endpoint
  kError = 7,      ///< server->client: session_id, error code (session survives)
};

/// Per-session error codes carried in ErrorReply.
enum class ErrorCode : std::uint8_t {
  kNoSession = 1,     ///< request/control for a session never opened
  kUnknownImage = 2,  ///< open for an image id the server does not serve
  kBadMessage = 3,    ///< known kind, malformed payload
};

struct OpenImage {
  std::uint32_t session_id = 0;
  std::uint32_t image_id = 0;
  std::uint8_t level = 0;
  std::uint8_t codec = 0;
};

struct OpenAck {
  std::uint32_t session_id = 0;
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::uint8_t levels = 0;
};

struct Request {
  std::uint32_t session_id = 0;
  std::uint16_t cx = 0;
  std::uint16_t cy = 0;
  std::uint16_t half = 0;
  std::uint8_t level = 0;
};

struct Reply {
  std::uint32_t session_id = 0;
  bool complete = false;       ///< everything for this level has been sent
  std::uint8_t codec = 0;
  bool premeasured = false;    ///< payload is raw; wire size was overridden
  std::uint32_t raw_len = 0;   ///< decompressed payload length
  std::uint32_t wire_len = 0;  ///< compressed length actually charged
  /// Tile bytes (raw when premeasured, else compressed); never null on a
  /// decoded reply.  Shared with the sender, so it is never copied.
  std::shared_ptr<const util::Blob> body;
};

/// Inline header length of a kReply (the body follows out of line).
inline constexpr std::size_t kReplyHeaderBytes = 15;

struct SetCodec {
  std::uint32_t session_id = 0;
  std::uint8_t codec = 0;
};

struct ErrorReply {
  std::uint32_t session_id = 0;  ///< 0 when the session could not be parsed
  ErrorCode code = ErrorCode::kBadMessage;
};

// -- encode/decode to sim::Message ---------------------------------------
// Inline payloads are little-endian and go through util/bytes.hpp.
// Decoders throw std::runtime_error on malformed/mismatched messages (wrong
// kind, truncated or trailing inline bytes, a reply without its body); no
// input makes them read out of bounds.

sim::Message encode(const OpenImage& m);
sim::Message encode(const OpenAck& m);
sim::Message encode(const Request& m);
sim::Message encode(const Reply& m);
sim::Message encode(const SetCodec& m);
sim::Message encode(const ErrorReply& m);
sim::Message encode_shutdown();

OpenImage decode_open_image(const sim::Message& m);
OpenAck decode_open_ack(const sim::Message& m);
Request decode_request(const sim::Message& m);
Reply decode_reply(sim::Message m);  // takes over the message body
SetCodec decode_set_codec(const sim::Message& m);
ErrorReply decode_error(const sim::Message& m);

}  // namespace avf::viz
