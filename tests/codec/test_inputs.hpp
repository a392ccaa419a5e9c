// Deterministic inputs shared by the codec tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "codec/codec.hpp"
#include "util/rng.hpp"
#include "wavelet/image.hpp"
#include "wavelet/progressive.hpp"

namespace avf::codec::testing {

/// `n` seeded bytes, uniform over [0, alphabet).
inline Bytes random_bytes(std::size_t n, std::uint64_t seed,
                          int alphabet = 256) {
  util::SplitMix64 rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(alphabet));
  }
  return out;
}

/// Runs of 1-8 equal bytes drawn from 16 values: compressible, but not
/// trivially.
inline Bytes structured_input(std::size_t n, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    std::uint8_t b = static_cast<std::uint8_t>(rng.next_below(16));
    std::size_t run = 1 + rng.next_below(8);
    out.insert(out.end(), run, b);
  }
  out.resize(n);
  return out;
}

/// `n` bytes of seeded little-endian i16 values in [-magnitude, magnitude]
/// (magnitude < 256, so every high byte is 0x00 or 0xFF): the shape of
/// wavelet coefficients, on which a suffix's type flips almost at random.
/// An odd `n` ends with a low byte.
inline Bytes i16_coefficients(std::size_t n, std::uint64_t seed,
                              int magnitude) {
  util::SplitMix64 rng(seed);
  Bytes out(n);
  for (std::size_t i = 0; i < n; i += 2) {
    const auto v = static_cast<std::uint16_t>(
        static_cast<int>(rng.next_below(2 * magnitude + 1)) - magnitude);
    out[i] = static_cast<std::uint8_t>(v);
    if (i + 1 < n) out[i + 1] = static_cast<std::uint8_t>(v >> 8);
  }
  return out;
}

/// The progressive wavelet payload bench/micro_codec compresses: a 512x512
/// image (seed 99), 4 levels, 16-pixel tiles, the full image at level 4.
inline const Bytes& wavelet_payload() {
  static const Bytes data = [] {
    wavelet::Pyramid pyr(wavelet::Image::synthetic(512, 512, 99), 4);
    wavelet::ProgressiveEncoder enc(pyr, 16);
    return enc.encode_region({256, 256, 512}, 4);
  }();
  return data;
}

}  // namespace avf::codec::testing
