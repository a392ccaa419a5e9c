// Bzip2-style block compressor — the paper's "compression B".
//
// Pipeline per block (default 64 KiB): Burrows-Wheeler transform (suffix
// array by induced sorting, linear time), move-to-front, bzip2-style
// zero-run coding, canonical Huffman.  Substantially better ratio than LZW
// on the wavelet-coefficient data the visualization application ships, at
// a much higher CPU cost — exactly the trade-off that produces the Figure
// 6(a) crossover.
//
// Format (integers u32 little-endian, through util/bytes.hpp): input_len,
// then per block { block_len | primary_index | symbol_count | packed_len |
// huffman table (257 x 1-byte code lengths) | bitstream }.  decompress
// rejects a block_len outside [1, kMaxBlockSize] before decoding the
// block, and trailing bytes after the last block.
#pragma once

#include "codec/codec.hpp"

namespace avf::codec {

class BwtCodec final : public Codec {
 public:
  /// Largest accepted block.  The suffix array's int32 indices and the u32
  /// block header would hold up to 2^31 - 2 bytes; 32-bit Huffman codes
  /// need fewer than F(35) = 9,227,465 symbols per block, so 8 MiB.
  static constexpr std::size_t kMaxBlockSize = std::size_t{8} << 20;

  /// Throws std::invalid_argument unless block_size is in
  /// [1, kMaxBlockSize].
  explicit BwtCodec(std::size_t block_size = 64 * 1024);

  std::string_view name() const override { return "bwt"; }
  Bytes compress(BytesView input) const override;
  Bytes decompress(BytesView input) const override;
  // ~1 MB/s compress, ~4.7 MB/s decompress on a 450 Mops host — bzip2-class
  // throughput on late-90s hardware (and roughly 10x LZW, which is what
  // creates the Figure 6(a) crossover inside the 50-500 KBps window).
  CostModel cost() const override { return {450.0, 95.0}; }

  std::size_t block_size() const { return block_size_; }

 private:
  std::size_t block_size_;
};

namespace bwtdetail {

/// Burrows-Wheeler transform of `block`; returns the transformed bytes and
/// sets `primary_index` to the row of the original string.
Bytes bwt_forward(BytesView block, std::uint32_t& primary_index);

/// Inverse BWT.
Bytes bwt_inverse(BytesView last_column, std::uint32_t primary_index);

/// Move-to-front encode/decode (alphabet of 256 byte values).
Bytes mtf_encode(BytesView input);
Bytes mtf_decode(BytesView input);

/// bzip2-style zero-run coding of the MTF stream: symbols 0/1 are RUNA/RUNB
/// digits of a bijective base-2 run length; MTF value v >= 1 maps to symbol
/// v + 1.  Alphabet size = 257.
constexpr int kRle0Alphabet = 257;
std::vector<std::uint16_t> rle0_encode(BytesView mtf);
/// `max_output` bounds the decoded size (a corrupted run-length symbol
/// sequence could otherwise claim astronomically long zero runs).
Bytes rle0_decode(std::span<const std::uint16_t> symbols,
                  std::size_t max_output = SIZE_MAX);

/// Canonical Huffman over a small symbol alphabet (the RLE0 stream uses
/// kRle0Alphabet).  `lengths_out` receives `alphabet` code lengths (0 =
/// symbol absent); decode needs the same table.  Throws std::length_error
/// if a code would exceed 32 bits (only possible past 9,227,464 symbols).
Bytes huffman_encode_sym(std::span<const std::uint16_t> symbols, int alphabet,
                         std::vector<std::uint8_t>& lengths_out);
std::vector<std::uint16_t> huffman_decode_sym(
    BytesView bits, std::span<const std::uint8_t> lengths,
    std::size_t symbol_count);

/// Suffix array of `data` (treating it as ending with a unique smallest
/// sentinel): data.size() + 1 entries, the sentinel suffix first.  SA-IS
/// induced sorting, O(n) time; throws std::length_error if data.size()
/// does not fit int32 indices.
std::vector<std::uint32_t> suffix_array(BytesView data);

}  // namespace bwtdetail

}  // namespace avf::codec
