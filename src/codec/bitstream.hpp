// Bit-granular I/O over byte buffers, shared by the LZW and Huffman coders.
// Bits are packed LSB-first within each byte.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace avf::codec {

class BitWriter {
 public:
  /// Append the low `nbits` bits of `value` (nbits in [0, 32]).  Bits
  /// collect in a 64-bit accumulator and leave it 32 at a time.
  void write(std::uint32_t value, int nbits) {
    acc_ |= (value & ((std::uint64_t{1} << nbits) - 1)) << fill_;
    fill_ += nbits;
    if (fill_ >= 32) {
      flush_bytes(4);
      fill_ -= 32;
    }
  }

  std::vector<std::uint8_t> take() {
    flush_bytes((fill_ + 7) / 8);
    fill_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<std::size_t>(fill_);
  }

 private:
  /// Move the accumulator's low `n` bytes to the buffer, LSB first.
  void flush_bytes(int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // pending bits, the oldest in bit 0
  int fill_ = 0;           // pending bit count, < 32 between writes
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `nbits` bits (LSB-first); throws std::runtime_error past the end.
  std::uint32_t read(int nbits) {
    std::uint32_t value = 0;
    for (int i = 0; i < nbits; ++i) {
      if (pos_ >= data_.size()) {
        throw std::runtime_error("bitstream: read past end");
      }
      if ((data_[pos_] >> bit_) & 1u) value |= (1u << i);
      if (++bit_ == 8) {
        bit_ = 0;
        ++pos_;
      }
    }
    return value;
  }

  bool exhausted() const { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  int bit_ = 0;
};

}  // namespace avf::codec
