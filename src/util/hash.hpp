// Seeded, deterministic 128-bit content hashing for the content-addressed
// stores (viz::TileStore keys, pyramid content fingerprints), plus the
// plain 64-bit FNV-1a, and the field folder over it, used by fingerprints
// and cache keys.
//
// Two independent FNV-1a-style 64-bit lanes run over the same byte stream
// with different offsets and odd multipliers, then each lane is finalized
// with a splitmix64-style avalanche and the lanes are cross-folded.  The
// result is a 128-bit digest that is:
//
//  - deterministic: a pure function of (seed, bytes) — no wall clock, no
//    std::random_device, no ASLR-dependent state — so run-twice equality
//    and cross-platform stability hold (multi-byte updates fold bytes
//    LSB-first regardless of host endianness);
//  - seeded: the seed acts as a domain tag, so region-payload keys,
//    compressed-chunk keys, and pyramid fingerprints live in disjoint key
//    spaces even when their byte streams coincide;
//  - incremental: callers fold fields one at a time (update_u16 per
//    TileRef coordinate, ...) instead of materializing a key buffer — the
//    whole point for hot-path lookups that previously built a std::string
//    per request.
//
// 128 bits make accidental collisions astronomically unlikely, and
// viz::TileStore's verify_on_hit mode byte-compares hit payloads as a
// debug-time guard for the remaining possibility.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace avf::util {

/// 64-bit FNV-1a offset basis and prime.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a over `n` bytes at `data`, continuing from state `h` (the
/// offset basis starts a fresh hash).  The single FNV-1a loop of the tree:
/// fingerprints and cache keys chain calls field by field; multi-byte
/// values passed by address fold in host byte order.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds fields into a running fnv1a64 state, one field at a time: the
/// fingerprints chain u64 counts, f64 bit patterns and raw bytes through it.
/// Each caller fixes its own field order (a string's length before or
/// after its bytes), which is part of that fingerprint's value.
struct Fnv1aFold {
  std::uint64_t h = kFnv1aOffset;

  Fnv1aFold& bytes(const void* data, std::size_t n) {
    h = fnv1a64(data, n, h);
    return *this;
  }
  Fnv1aFold& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1aFold& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
};

/// 128-bit digest.  Ordered so it can key ordered containers in tests;
/// unordered containers should hash with `lo` (already avalanche-mixed).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

class Hasher128 {
 public:
  explicit Hasher128(std::uint64_t seed = 0)
      : lo_(kOffsetLo ^ seed), hi_(kOffsetHi ^ (kGolden * (seed + 1))) {}

  Hasher128& update(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) fold(bytes[i]);
    return *this;
  }

  Hasher128& update_u8(std::uint8_t v) {
    fold(v);
    return *this;
  }
  Hasher128& update_u16(std::uint16_t v) { return fold_le(v, 2); }
  Hasher128& update_u32(std::uint32_t v) { return fold_le(v, 4); }
  Hasher128& update_u64(std::uint64_t v) { return fold_le(v, 8); }

  Hash128 finish() const {
    // Avalanche each lane, then cross-fold so the pair never degenerates
    // to two correlated copies of the same 64-bit state.
    std::uint64_t a = mix(lo_);
    std::uint64_t b = mix(hi_ + kGolden * a);
    return Hash128{b, mix(a ^ (b >> 32))};
  }

  /// One-shot convenience over a contiguous buffer.
  static Hash128 of(const void* data, std::size_t n, std::uint64_t seed = 0) {
    Hasher128 h(seed);
    h.update(data, n);
    return h.finish();
  }

 private:
  static constexpr std::uint64_t kOffsetLo = kFnv1aOffset;
  static constexpr std::uint64_t kOffsetHi = 0x84222325cbf29ce4ULL;
  static constexpr std::uint64_t kPrimeLo = kFnv1aPrime;
  static constexpr std::uint64_t kPrimeHi = 0x9e3779b97f4a7c15ULL | 1ULL;
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  void fold(std::uint8_t b) {
    lo_ = (lo_ ^ b) * kPrimeLo;
    hi_ = (hi_ ^ b) * kPrimeHi;
  }

  /// Fold an integer LSB-first: byte order is part of the digest contract,
  /// independent of host endianness.
  Hasher128& fold_le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) fold(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  static std::uint64_t mix(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  std::uint64_t lo_;
  std::uint64_t hi_;
};

}  // namespace avf::util
