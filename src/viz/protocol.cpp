#include "viz/protocol.hpp"

#include <utility>
#include <vector>

#include "util/fmt.hpp"

namespace avf::viz {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, v & 0xFFFF);
  put_u16(out, v >> 16);
}

struct Reader {
  const std::vector<std::uint8_t>& data;
  std::size_t at = 0;

  std::uint8_t u8() {
    need(1);
    return data[at++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data[at] | (data[at + 1] << 8));
    at += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  void need(std::size_t n) const {
    if (at + n > data.size()) {
      throw std::runtime_error("viz protocol: truncated message");
    }
  }
  void done() const {
    if (at != data.size()) {
      throw std::runtime_error("viz protocol: trailing bytes");
    }
  }
};

void check_kind(const sim::Message& m, int kind) {
  if (m.kind != kind) {
    throw std::runtime_error(util::format(
        "viz protocol: expected message kind {}, got {}", kind, m.kind));
  }
  // Only a reply carries out-of-line bytes; on any other kind a body is
  // trailing data.
  if (kind != kReply && m.body != nullptr) {
    throw std::runtime_error("viz protocol: unexpected message body");
  }
}

}  // namespace

sim::Message encode(const OpenImage& m) {
  sim::Message out;
  out.kind = kOpenImage;
  put_u32(out.payload, m.session_id);
  put_u32(out.payload, m.image_id);
  out.payload.push_back(m.level);
  out.payload.push_back(m.codec);
  return out;
}

OpenImage decode_open_image(const sim::Message& m) {
  check_kind(m, kOpenImage);
  Reader r{m.payload};
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
  put_u32(out.payload, m.session_id);
  put_u16(out.payload, m.width);
  put_u16(out.payload, m.height);
  out.payload.push_back(m.levels);
  return out;
}

OpenAck decode_open_ack(const sim::Message& m) {
  check_kind(m, kOpenAck);
  Reader r{m.payload};
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
  put_u32(out.payload, m.session_id);
  put_u16(out.payload, m.cx);
  put_u16(out.payload, m.cy);
  put_u16(out.payload, m.half);
  out.payload.push_back(m.level);
  return out;
}

Request decode_request(const sim::Message& m) {
  check_kind(m, kRequest);
  Reader r{m.payload};
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
  put_u32(out.payload, m.session_id);
  out.payload.push_back(m.complete ? 1 : 0);
  out.payload.push_back(m.codec);
  out.payload.push_back(m.premeasured ? 1 : 0);
  put_u32(out.payload, m.raw_len);
  put_u32(out.payload, m.wire_len);
  out.body = m.body;
  if (m.premeasured) {
    // Network charges the compressed size, not the raw convenience bytes.
    out.wire_size_override =
        m.wire_len + kReplyHeaderBytes + sim::kMessageHeaderBytes;
  }
  return out;
}

Reply decode_reply(sim::Message m) {
  check_kind(m, kReply);
  Reader r{m.payload};
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
  put_u32(out.payload, m.session_id);
  out.payload.push_back(m.codec);
  return out;
}

SetCodec decode_set_codec(const sim::Message& m) {
  check_kind(m, kSetCodec);
  Reader r{m.payload};
  SetCodec out;
  out.session_id = r.u32();
  out.codec = r.u8();
  r.done();
  return out;
}

sim::Message encode(const ErrorReply& m) {
  sim::Message out;
  out.kind = kError;
  put_u32(out.payload, m.session_id);
  out.payload.push_back(static_cast<std::uint8_t>(m.code));
  return out;
}

ErrorReply decode_error(const sim::Message& m) {
  check_kind(m, kError);
  Reader r{m.payload};
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
