#include "util/blob.hpp"

#include <utility>

#include "util/hash.hpp"

namespace avf::util {

namespace {

std::uint64_t pow_mod64(std::uint64_t base, std::size_t exp) {
  std::uint64_t result = 1;
  while (exp != 0) {
    if ((exp & 1) != 0) result *= base;
    base *= base;
    exp >>= 1;
  }
  return result;
}

}  // namespace

Blob::Blob(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)),
      prime_pow_(pow_mod64(kFnv1aPrime, bytes_.size())) {}

std::uint64_t Blob::fnv1a64(std::uint64_t seed) const {
  const std::uint64_t low = seed & 0xff;
  const std::uint64_t bit = std::uint64_t{1} << (low % 64);
  std::atomic<std::uint64_t>& word = ready_[low / 64];
  if ((word.load(std::memory_order_acquire) & bit) != 0) {
    return seed * prime_pow_ +
           residual_[low].load(std::memory_order_relaxed);
  }
  const std::uint64_t residual =
      util::fnv1a64(bytes_.data(), bytes_.size(), low) - low * prime_pow_;
  residual_[low].store(residual, std::memory_order_relaxed);
  word.fetch_or(bit, std::memory_order_release);  // publishes the slot
  return seed * prime_pow_ + residual;
}

}  // namespace avf::util
