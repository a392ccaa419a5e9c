#include "viz/protocol.hpp"

#include <utility>

#include "util/bytes.hpp"
#include "util/fmt.hpp"

namespace avf::viz {

namespace {

/// Checks that `m` is a `kind` message and returns a reader over its
/// inline payload.
util::ByteReader payload_of(const sim::Message& m, int kind) {
  if (m.kind != kind) {
    throw std::runtime_error(util::format(
        "viz protocol: expected message kind {}, got {}", kind, m.kind));
  }
  // Only a reply carries out-of-line bytes; on any other kind a body is
  // trailing data.
  if (kind != kReply && m.body != nullptr) {
    throw std::runtime_error("viz protocol: unexpected message body");
  }
  return util::ByteReader(m.payload, "viz protocol");
}

}  // namespace

sim::Message encode(const OpenImage& m) {
  sim::Message out;
  out.kind = kOpenImage;
  util::put_u32(out.payload, m.session_id);
  util::put_u32(out.payload, m.image_id);
  out.payload.push_back(m.level);
  out.payload.push_back(m.codec);
  return out;
}

OpenImage decode_open_image(const sim::Message& m) {
  util::ByteReader r = payload_of(m, kOpenImage);
  OpenImage out;
  out.session_id = r.u32();
  out.image_id = r.u32();
  out.level = r.u8();
  out.codec = r.u8();
  r.done();
  return out;
}

sim::Message encode(const OpenAck& m) {
  sim::Message out;
  out.kind = kOpenAck;
  util::put_u32(out.payload, m.session_id);
  util::put_u16(out.payload, m.width);
  util::put_u16(out.payload, m.height);
  out.payload.push_back(m.levels);
  return out;
}

OpenAck decode_open_ack(const sim::Message& m) {
  util::ByteReader r = payload_of(m, kOpenAck);
  OpenAck out;
  out.session_id = r.u32();
  out.width = r.u16();
  out.height = r.u16();
  out.levels = r.u8();
  r.done();
  return out;
}

sim::Message encode(const Request& m) {
  sim::Message out;
  out.kind = kRequest;
  util::put_u32(out.payload, m.session_id);
  util::put_u16(out.payload, m.cx);
  util::put_u16(out.payload, m.cy);
  util::put_u16(out.payload, m.half);
  out.payload.push_back(m.level);
  return out;
}

Request decode_request(const sim::Message& m) {
  util::ByteReader r = payload_of(m, kRequest);
  Request out;
  out.session_id = r.u32();
  out.cx = r.u16();
  out.cy = r.u16();
  out.half = r.u16();
  out.level = r.u8();
  r.done();
  return out;
}

sim::Message encode(const Reply& m) {
  sim::Message out;
  out.kind = kReply;
  util::put_u32(out.payload, m.session_id);
  out.payload.push_back(m.complete ? 1 : 0);
  out.payload.push_back(m.codec);
  out.payload.push_back(m.premeasured ? 1 : 0);
  util::put_u32(out.payload, m.raw_len);
  util::put_u32(out.payload, m.wire_len);
  out.body = m.body;
  if (m.premeasured) {
    // Network charges the compressed size, not the raw convenience bytes.
    out.wire_size_override =
        m.wire_len + kReplyHeaderBytes + sim::kMessageHeaderBytes;
  }
  return out;
}

Reply decode_reply(sim::Message m) {
  util::ByteReader r = payload_of(m, kReply);
  Reply out;
  out.session_id = r.u32();
  out.complete = r.u8() != 0;
  out.codec = r.u8();
  out.premeasured = r.u8() != 0;
  out.raw_len = r.u32();
  out.wire_len = r.u32();
  r.done();
  if (m.body == nullptr) {
    throw std::runtime_error("viz protocol: reply without body");
  }
  out.body = std::move(m.body);
  return out;
}

sim::Message encode(const SetCodec& m) {
  sim::Message out;
  out.kind = kSetCodec;
  util::put_u32(out.payload, m.session_id);
  out.payload.push_back(m.codec);
  return out;
}

SetCodec decode_set_codec(const sim::Message& m) {
  util::ByteReader r = payload_of(m, kSetCodec);
  SetCodec out;
  out.session_id = r.u32();
  out.codec = r.u8();
  r.done();
  return out;
}

sim::Message encode(const ErrorReply& m) {
  sim::Message out;
  out.kind = kError;
  util::put_u32(out.payload, m.session_id);
  out.payload.push_back(static_cast<std::uint8_t>(m.code));
  return out;
}

ErrorReply decode_error(const sim::Message& m) {
  util::ByteReader r = payload_of(m, kError);
  ErrorReply out;
  out.session_id = r.u32();
  out.code = static_cast<ErrorCode>(r.u8());
  r.done();
  return out;
}

sim::Message encode_shutdown() {
  sim::Message out;
  out.kind = kShutdown;
  return out;
}

}  // namespace avf::viz
