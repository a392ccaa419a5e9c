#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace avf::util {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// The message of the std::runtime_error `fn` throws, or "" if none.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ByteReader, PutIsLsbFirst) {
  Bytes out;
  put_u16(out, 0x1234);
  put_u32(out, 0x89ABCDEF);
  EXPECT_EQ(out, (Bytes{0x34, 0x12, 0xEF, 0xCD, 0xAB, 0x89}));
  EXPECT_EQ(load_u16(out.data()), 0x1234);
  EXPECT_EQ(load_u16(out.data() + 4), 0x89AB);
}

TEST(ByteReader, RowFormsMatchPutU16) {
  const std::int16_t row[] = {0x1234, -1, -32768, 0x7FFF, 0};
  Bytes via_put;
  for (std::int16_t v : row) put_u16(via_put, static_cast<std::uint16_t>(v));
  Bytes stored(via_put.size());
  store_i16s(stored.data(), row, 5);
  EXPECT_EQ(stored, via_put);
  std::int16_t back[5] = {};
  load_i16s(back, stored.data(), 5);
  EXPECT_TRUE(std::equal(row, row + 5, back));
}

TEST(ByteReader, RoundTripsWhatPutWrites) {
  Bytes out;
  out.push_back(0xFE);
  for (std::uint16_t v : {0x0000, 0x00FF, 0xFF00, 0xFFFF, 0x8001}) {
    put_u16(out, v);
  }
  for (std::uint32_t v : {0x00000000u, 0xFFFFFFFFu, 0x80000001u, 0x01020304u}) {
    put_u32(out, v);
  }
  out.insert(out.end(), {7, 8, 9});

  ByteReader in(out, "test");
  EXPECT_EQ(in.u8(), 0xFE);
  for (std::uint16_t v : {0x0000, 0x00FF, 0xFF00, 0xFFFF, 0x8001}) {
    EXPECT_EQ(in.u16(), v);
  }
  for (std::uint32_t v : {0x00000000u, 0xFFFFFFFFu, 0x80000001u, 0x01020304u}) {
    EXPECT_EQ(in.u32(), v);
  }
  std::span<const std::uint8_t> seven = in.take(1);
  EXPECT_EQ(seven.data(), out.data() + out.size() - 3);  // in place
  EXPECT_EQ(seven[0], 7);
  std::span<const std::uint8_t> rest = in.rest();
  EXPECT_EQ(Bytes(rest.begin(), rest.end()), (Bytes{8, 9}));
  EXPECT_TRUE(in.rest().empty());
  EXPECT_TRUE(in.take(0).empty());
  EXPECT_NO_THROW(in.done());
}

TEST(ByteReader, TruncationNamesTheFormat) {
  const Bytes three = {1, 2, 3};
  EXPECT_EQ(error_of([&] { ByteReader(three, "lzw").u32(); }),
            "lzw: truncated");
  EXPECT_EQ(error_of([&] { ByteReader({}, "viz protocol").u8(); }),
            "viz protocol: truncated");
  ByteReader in(three, "progressive");
  in.u16();
  EXPECT_EQ(error_of([&] { in.u16(); }), "progressive: truncated");
  EXPECT_EQ(in.u8(), 3);  // a failed read does not move the cursor
}

TEST(ByteReader, TrailingBytesNameTheFormat) {
  const Bytes three = {1, 2, 3};
  ByteReader in(three, "bwt");
  in.u16();
  EXPECT_EQ(error_of([&] { in.done(); }), "bwt: trailing bytes");
  in.u8();
  EXPECT_NO_THROW(in.done());
}

TEST(ByteReader, TakePastTheEndThrowsInsteadOfWrapping) {
  const Bytes four = {1, 2, 3, 4};
  ByteReader in(four, "test");
  in.u8();
  // With one byte read, at + SIZE_MAX wraps to 0: a check written as
  // at + n > size would pass it.
  for (std::size_t n : {std::size_t{4}, SIZE_MAX, SIZE_MAX - 1}) {
    EXPECT_EQ(error_of([&] { in.take(n); }), "test: truncated") << n;
  }
  EXPECT_EQ(in.take(3).size(), 3u);
  EXPECT_EQ(error_of([&] { in.take(1); }), "test: truncated");
}

}  // namespace
}  // namespace avf::util
