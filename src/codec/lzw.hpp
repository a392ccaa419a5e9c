// LZW — the paper's "compression A".
//
// Classic variable-width LZW: codes start at 9 bits and grow to 12; when the
// dictionary fills, a CLEAR code resets it.  Format: 4-byte little-endian
// original length, then the LSB-first packed code stream.
#pragma once

#include "codec/codec.hpp"

namespace avf::codec {

class LzwCodec final : public Codec {
 public:
  std::string_view name() const override { return "lzw"; }
  Bytes compress(BytesView input) const override;
  Bytes decompress(BytesView input) const override;
  // ~10 MB/s compress, ~18 MB/s decompress on a 450 Mops host, matching
  // Unix compress(1)-class throughput on late-90s hardware.
  CostModel cost() const override { return {45.0, 25.0}; }
};

}  // namespace avf::codec
