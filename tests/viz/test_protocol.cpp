#include "viz/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "golden_digest.hpp"
#include "util/blob.hpp"
#include "util/rng.hpp"

namespace avf::viz {
namespace {

TEST(Protocol, OpenImageRoundTrip) {
  OpenImage m{.session_id = 7, .image_id = 12345, .level = 4, .codec = 2};
  OpenImage back = decode_open_image(encode(m));
  EXPECT_EQ(back.session_id, 7u);
  EXPECT_EQ(back.image_id, 12345u);
  EXPECT_EQ(back.level, 4);
  EXPECT_EQ(back.codec, 2);
}

TEST(Protocol, OpenAckRoundTrip) {
  OpenAck m{.session_id = 3, .width = 1024, .height = 768, .levels = 4};
  OpenAck back = decode_open_ack(encode(m));
  EXPECT_EQ(back.session_id, 3u);
  EXPECT_EQ(back.width, 1024);
  EXPECT_EQ(back.height, 768);
  EXPECT_EQ(back.levels, 4);
}

TEST(Protocol, RequestRoundTrip) {
  Request m{
      .session_id = 42, .cx = 512, .cy = 600, .half = 320, .level = 3};
  Request back = decode_request(encode(m));
  EXPECT_EQ(back.session_id, 42u);
  EXPECT_EQ(back.cx, 512);
  EXPECT_EQ(back.cy, 600);
  EXPECT_EQ(back.half, 320);
  EXPECT_EQ(back.level, 3);
}

TEST(Protocol, ReplyRoundTrip) {
  Reply m;
  m.session_id = 9;
  m.complete = true;
  m.codec = 1;
  m.premeasured = false;
  m.raw_len = 100000;
  m.wire_len = 55000;
  m.body = std::make_shared<const util::Blob>(
      std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  sim::Message wire = encode(m);
  EXPECT_EQ(wire.wire_size_override, 0u);  // real payload: no override
  // Inline header + body + frame header, as when the bytes were inline.
  EXPECT_EQ(wire.payload.size(), kReplyHeaderBytes);
  EXPECT_EQ(wire.wire_size(), 15u + 5u + sim::kMessageHeaderBytes);
  Reply back = decode_reply(std::move(wire));
  EXPECT_EQ(back.session_id, 9u);
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.codec, 1);
  EXPECT_EQ(back.raw_len, 100000u);
  EXPECT_EQ(back.wire_len, 55000u);
  ASSERT_NE(back.body, nullptr);
  EXPECT_EQ(back.body->bytes(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(back.body.get(), m.body.get());  // shared, never copied
}

TEST(Protocol, PremeasuredReplyOverridesWireSize) {
  Reply m;
  m.premeasured = true;
  m.raw_len = 1000;
  m.wire_len = 400;
  // Raw bytes shipped.
  m.body = std::make_shared<const util::Blob>(std::vector<std::uint8_t>(1000, 7));
  sim::Message wire = encode(m);
  // Charged as compressed size + protocol header (session_id + flags +
  // lengths = 15 bytes) + frame header.
  EXPECT_EQ(wire.wire_size_override,
            400u + 15u + sim::kMessageHeaderBytes);
  EXPECT_EQ(wire.wire_size(), wire.wire_size_override);
  Reply back = decode_reply(std::move(wire));
  EXPECT_TRUE(back.premeasured);
  ASSERT_NE(back.body, nullptr);
  EXPECT_EQ(back.body->bytes(), std::vector<std::uint8_t>(1000, 7));
}

Reply sample_reply() {
  Reply m;
  m.session_id = 4;
  m.codec = 2;
  m.raw_len = 3;
  m.wire_len = 3;
  m.body = std::make_shared<const util::Blob>(
      std::vector<std::uint8_t>{9, 8, 7});
  return m;
}

TEST(Protocol, ReplyTruncatedHeaderThrows) {
  sim::Message wire = encode(sample_reply());
  wire.payload.pop_back();
  EXPECT_THROW(decode_reply(std::move(wire)), std::runtime_error);
}

TEST(Protocol, ReplyTrailingInlineBytesThrow) {
  // The tile bytes travel in the body; inline bytes past the 15-byte
  // header are malformed, not payload.
  sim::Message wire = encode(sample_reply());
  wire.payload.push_back(0);
  EXPECT_THROW(decode_reply(std::move(wire)), std::runtime_error);
}

TEST(Protocol, ReplyWithoutBodyThrows) {
  sim::Message wire = encode(sample_reply());
  wire.body.reset();
  EXPECT_THROW(decode_reply(std::move(wire)), std::runtime_error);
}

TEST(Protocol, EmptyBodyIsAValidReply) {
  Reply m = sample_reply();
  m.body = std::make_shared<const util::Blob>(std::vector<std::uint8_t>{});
  Reply back = decode_reply(encode(m));
  ASSERT_NE(back.body, nullptr);
  EXPECT_TRUE(back.body->empty());
}

TEST(Protocol, BodyOnNonReplyKindThrows) {
  sim::Message m = encode(SetCodec{.session_id = 1, .codec = 1});
  m.body = std::make_shared<const util::Blob>(std::vector<std::uint8_t>{0});
  EXPECT_THROW(decode_set_codec(m), std::runtime_error);
}

TEST(Protocol, SetCodecRoundTrip) {
  SetCodec back =
      decode_set_codec(encode(SetCodec{.session_id = 5, .codec = 2}));
  EXPECT_EQ(back.session_id, 5u);
  EXPECT_EQ(back.codec, 2);
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReply m{.session_id = 17, .code = ErrorCode::kNoSession};
  sim::Message wire = encode(m);
  EXPECT_EQ(wire.kind, kError);
  ErrorReply back = decode_error(wire);
  EXPECT_EQ(back.session_id, 17u);
  EXPECT_EQ(back.code, ErrorCode::kNoSession);
}

TEST(Protocol, ErrorReplyTruncatedThrows) {
  sim::Message wire =
      encode(ErrorReply{.session_id = 1, .code = ErrorCode::kBadMessage});
  wire.payload.pop_back();
  EXPECT_THROW(decode_error(wire), std::runtime_error);
}

TEST(Protocol, KindMismatchThrows) {
  sim::Message m = encode(SetCodec{.codec = 1});
  EXPECT_THROW(decode_request(m), std::runtime_error);
  EXPECT_THROW(decode_open_image(m), std::runtime_error);
}

TEST(Protocol, TruncatedPayloadThrows) {
  sim::Message m = encode(Request{.cx = 1, .cy = 2, .half = 3, .level = 4});
  m.payload.pop_back();
  EXPECT_THROW(decode_request(m), std::runtime_error);
}

TEST(Protocol, TrailingBytesThrow) {
  sim::Message m = encode(SetCodec{.codec = 1});
  m.payload.push_back(0);
  EXPECT_THROW(decode_set_codec(m), std::runtime_error);
}

TEST(Protocol, ShutdownHasNoPayload) {
  sim::Message m = encode_shutdown();
  EXPECT_EQ(m.kind, kShutdown);
  EXPECT_TRUE(m.payload.empty());
}

// Seeded mutation test over every decoder: each well-formed message is
// truncated, extended, bit-flipped, and given or stripped of a body, and
// every mutant goes through every decode_*.  Each call must return or throw
// std::runtime_error; under the sanitizer build any out-of-bounds read
// fails the test.  The seed is fixed, so a failure replays exactly.
TEST(Protocol, MutatedMessagesDecodeOrThrow) {
  const std::vector<sim::Message> seeds = {
      encode(OpenImage{.session_id = 7, .image_id = 3, .level = 4, .codec = 1}),
      encode(OpenAck{.session_id = 7, .width = 1024, .height = 512, .levels = 4}),
      encode(Request{.session_id = 7, .cx = 9, .cy = 10, .half = 64, .level = 2}),
      encode(sample_reply()),
      encode(SetCodec{.session_id = 7, .codec = 2}),
      encode(ErrorReply{.session_id = 7, .code = ErrorCode::kNoSession}),
      encode_shutdown(),
  };
  auto decode_all = [](const sim::Message& m) {
    int decoded = 0;
    auto attempt = [&](auto&& decode) {
      try {
        decode();
        ++decoded;
      } catch (const std::runtime_error&) {
      }
    };
    attempt([&] { (void)decode_open_image(m); });
    attempt([&] { (void)decode_open_ack(m); });
    attempt([&] { (void)decode_request(m); });
    attempt([&] { (void)decode_reply(m); });
    attempt([&] { (void)decode_set_codec(m); });
    attempt([&] { (void)decode_error(m); });
    return decoded;
  };

  util::SplitMix64 rng(0x70726f74ULL);  // "prot"
  int mutants = 0;
  int decoded = 0;
  for (int round = 0; round < 500; ++round) {
    for (const sim::Message& original : seeds) {
      sim::Message m = original;
      switch (rng.next_below(5)) {
        case 0:  // truncate
          m.payload.resize(rng.next_below(m.payload.size() + 1));
          break;
        case 1: {  // extend with random bytes
          std::uint64_t extra = 1 + rng.next_below(8);
          for (std::uint64_t i = 0; i < extra; ++i) {
            m.payload.push_back(static_cast<std::uint8_t>(rng.next()));
          }
          break;
        }
        case 2:  // flip one bit
          if (!m.payload.empty()) {
            m.payload[rng.next_below(m.payload.size())] ^=
                static_cast<std::uint8_t>(1u << rng.next_below(8));
          }
          break;
        case 3:  // toggle the body
          if (m.body) {
            m.body.reset();
          } else {
            m.body = std::make_shared<const util::Blob>(
                std::vector<std::uint8_t>(rng.next_below(4), 0x5a));
          }
          break;
        default:  // another kind's tag on these bytes
          m.kind = static_cast<int>(rng.next_below(9));
          break;
      }
      ++mutants;
      decoded += decode_all(m);
    }
  }
  EXPECT_EQ(mutants, 500 * static_cast<int>(seeds.size()));
  // Some mutants (e.g. a flipped flag byte) stay well-formed: the decoders
  // accept exactly the right shape, not nothing.
  EXPECT_GT(decoded, 0);
  // The unmutated messages each decode under their own kind only.
  for (const sim::Message& original : seeds) {
    EXPECT_EQ(decode_all(original), original.kind == kShutdown ? 0 : 1);
  }
}

// Golden inline payload of every message kind.  Multi-byte fields hold
// distinct bytes, so a swapped or dropped byte moves the digest.
TEST(ProtocolGolden, EncodedPayloads) {
  Reply reply = sample_reply();
  reply.session_id = 0x89ABCDEF;
  reply.complete = true;
  reply.premeasured = true;
  reply.raw_len = 0x01020304;
  reply.wire_len = 0x00A0B0C0;
  const std::pair<sim::Message, const char*> cases[] = {
      {encode(OpenImage{.session_id = 0x89ABCDEF,
                        .image_id = 0x13572468,
                        .level = 4,
                        .codec = 2}),
       "10:4691315e3ddf55e03b83762af4739e0b"},
      {encode(OpenAck{.session_id = 0x89ABCDEF,
                      .width = 0x1234,
                      .height = 0xFEDC,
                      .levels = 5}),
       "9:2298d4b38ad8984c4c579cfde624d3a1"},
      {encode(Request{.session_id = 0x89ABCDEF,
                      .cx = 0x0102,
                      .cy = 0xA0B0,
                      .half = 0x7F80,
                      .level = 3}),
       "11:19da3355a0935aee133ed02c864aadb2"},
      {encode(reply), "15:53108dda9bb5ab603bca37b651c9c3d9"},
      {encode(SetCodec{.session_id = 0x89ABCDEF, .codec = 2}),
       "5:6ada58a0762b3bfcaa15f8a7ebc27894"},
      {encode(ErrorReply{.session_id = 0x89ABCDEF,
                         .code = ErrorCode::kBadMessage}),
       "5:097590929df0ab2df76e30937d062f43"},
      {encode_shutdown(), "0:a350bf18bd3605d23cbf60ca88438073"},
  };
  for (const auto& [message, expected] : cases) {
    EXPECT_EQ(golden::digest(message.payload), expected)
        << "kind " << message.kind;
  }
}

}  // namespace
}  // namespace avf::viz
