// Immutable, shareable byte payload with an O(1) FNV-1a continuation.
//
// A Blob is what the content-addressed viz stores hold and what a reply
// message carries: the bytes are fixed at construction and every holder
// shares one instance through shared_ptr<const Blob>, so a payload is
// built once and never copied on its way from the store to the decoder.
//
// fnv1a64(seed) equals util::fnv1a64(data(), size(), seed) exactly, but
// costs one full pass per distinct *low byte* of the seed over the Blob's
// lifetime and O(1) afterwards.  The identity behind it: an FNV-1a step
// h' = (h ^ b) * P only touches h's low byte through the XOR, and the low
// byte of h' depends only on the low byte of h (the high part H = h - L is
// a multiple of 256, so H * P is too).  Induction over the bytes gives
//
//   fnv1a64(d, n, h) = (h - L) * P^n + fnv1a64(d, n, L)      (mod 2^64)
//                    = h * P^n + (fnv1a64(d, n, L) - L * P^n)
//
// with L = h & 0xff: once the low byte is fixed, the seed enters affinely.
// The Blob memoizes the residual fnv1a64(d, n, L) - L * P^n per low byte.
//
// The memo is lock-free: 256 atomic slots plus a ready bitmap published
// with release and read with acquire.  Racing first calls for the same low
// byte compute and store the same value, so no call ever sees a torn or
// wrong residual.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace avf::util {

class Blob {
 public:
  explicit Blob(std::vector<std::uint8_t> bytes);

  // Shared by pointer, never copied: the memo belongs to these bytes.
  Blob(const Blob&) = delete;
  Blob& operator=(const Blob&) = delete;

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  // Contiguous range: a Blob converts implicitly to std::span<const
  // std::uint8_t> (codec::BytesView), so codecs and decoders read it in place.
  const std::uint8_t* begin() const { return bytes_.data(); }
  const std::uint8_t* end() const { return bytes_.data() + bytes_.size(); }

  /// Exactly util::fnv1a64(data(), size(), seed); O(1) once the seed's low
  /// byte has been seen.  Thread-safe.
  std::uint64_t fnv1a64(std::uint64_t seed) const;

  friend bool operator==(const Blob& a, const Blob& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t prime_pow_;  // kFnv1aPrime^size() mod 2^64
  mutable std::array<std::atomic<std::uint64_t>, 256> residual_{};
  mutable std::array<std::atomic<std::uint64_t>, 4> ready_{};
};

}  // namespace avf::util
