// BitWriter packs through a 64-bit accumulator; these tests pin its byte
// layout (LSB-first within each byte) and round-trip it through BitReader.
#include "codec/bitstream.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace avf::codec {
namespace {

using Field = std::pair<std::uint32_t, int>;  // (value, width)

/// The layout spelled out one bit at a time: bit i of the stream is bit
/// i % 8 of byte i / 8.
std::vector<std::uint8_t> pack_bit_by_bit(const std::vector<Field>& fields) {
  std::vector<std::uint8_t> out;
  std::size_t bit = 0;
  for (auto [value, width] : fields) {
    for (int i = 0; i < width; ++i, ++bit) {
      if (bit % 8 == 0) out.push_back(0);
      if ((value >> i) & 1u) {
        out.back() |= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
  }
  return out;
}

std::vector<Field> random_fields(std::size_t count, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Field> fields;
  for (std::size_t i = 0; i < count; ++i) {
    int width = 1 + static_cast<int>(rng.next_below(32));
    auto value = static_cast<std::uint32_t>(rng.next());
    if (width < 32) value &= (1u << width) - 1;
    fields.emplace_back(value, width);
  }
  return fields;
}

TEST(BitStream, PinsLsbFirstLayout) {
  BitWriter w;
  w.write(1, 1);
  w.write(0, 1);
  w.write(0b101, 3);
  w.write(0xABC, 12);
  w.write(0xDEADBEEF, 32);  // crosses the accumulator's 32-bit flush
  w.write(0xFFFFFFFF, 3);   // only the low 3 bits are written
  w.write(0x1234, 0);       // zero width: nothing
  w.write(0x1234, 16);
  EXPECT_EQ(w.bit_count(), 68u);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0x95, 0x57, 0xdf, 0x7d, 0x5b,
                                                 0xbd, 0x4f, 0x23, 0x01}));
}

TEST(BitStream, MatchesBitByBitPacking) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<Field> fields = random_fields(1 + seed * 37, seed);
    BitWriter w;
    std::size_t bits = 0;
    for (auto [value, width] : fields) {
      w.write(value, width);
      bits += static_cast<std::size_t>(width);
    }
    EXPECT_EQ(w.bit_count(), bits);
    std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(bytes.size(), (bits + 7) / 8);
    EXPECT_EQ(bytes, pack_bit_by_bit(fields)) << "seed " << seed;
  }
}

TEST(BitStream, RoundTripsRandomWidths) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::vector<Field> fields = random_fields(5000, 100 + seed);
    BitWriter w;
    for (auto [value, width] : fields) w.write(value, width);
    std::vector<std::uint8_t> bytes = w.take();
    BitReader r(bytes);
    for (auto [value, width] : fields) ASSERT_EQ(r.read(width), value);
    // Only the final byte's padding is left.
    EXPECT_THROW(r.read(8), std::runtime_error);
  }
}

TEST(BitStream, TakeLeavesAnEmptyWriter) {
  BitWriter w;
  w.write(0x3FF, 10);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0xFF, 0x03}));
  EXPECT_EQ(w.bit_count(), 0u);
  w.write(0x5, 3);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0x05}));
  EXPECT_TRUE(w.take().empty());
}

}  // namespace
}  // namespace avf::codec
