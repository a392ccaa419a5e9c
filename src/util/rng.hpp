// Deterministic, seedable RNG used everywhere randomness is needed (synthetic
// images, interaction traces, property tests).  SplitMix64: tiny, fast, and
// reproducible across platforms — the whole repro must be bit-deterministic.
//
// SplitMix64 is counter-based: draw k of a stream is a pure function of
// (seed, k), since each next() only adds a constant to the state before
// mixing it.  skip(n) therefore jumps n draws ahead in O(1), which lets
// independent parts of one stream be generated on different threads.
#pragma once

#include <cstdint>

namespace avf::util {

class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Advance the stream by `n` draws, as `n` calls to next() would
  /// (the state wraps modulo 2^64, as next() does).
  constexpr void skip(std::uint64_t n) { state_ += n * kGamma; }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound), from exactly one draw; bound must be
  /// > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    return next() % bound;  // negligible modulo bias for our bounds
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  std::uint64_t state_;
};

}  // namespace avf::util
