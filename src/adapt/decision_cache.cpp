#include "adapt/decision_cache.hpp"

#include <bit>
#include <cmath>

#include "util/hash.hpp"

namespace avf::adapt {

namespace {

using util::fnv1a64;

constexpr int kQuantBits = 20;  // ~1e-6 relative buckets

/// Bucket of one coordinate at ~2^-20 relative precision.
std::uint64_t quantize(double x) {
  if (!std::isfinite(x)) return std::bit_cast<std::uint64_t>(x);
  if (x == 0.0) return 0;
  int exp = 0;
  double mantissa = std::frexp(x, &exp);  // |mantissa| in [0.5, 1)
  auto q = static_cast<std::int64_t>(
      std::llround(mantissa * static_cast<double>(1 << kQuantBits)));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(exp)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(q));
}

}  // namespace

std::uint64_t DecisionCache::hash_query(const Query& q) {
  std::uint64_t h = fnv1a64(&q.db_uid, sizeof(q.db_uid));
  h = fnv1a64(&q.selector_fingerprint, sizeof(q.selector_fingerprint), h);
  unsigned char inc = q.has_incumbent ? 1 : 0;
  h = fnv1a64(&inc, sizeof(inc), h);
  h = fnv1a64(q.incumbent_key.data(), q.incumbent_key.size(), h);
  // Quantized coordinates bucket the hash; exactness comes from the raw-bit
  // verification in keys_match.
  for (double x : *q.resources) {
    std::uint64_t qx = quantize(x);
    h = fnv1a64(&qx, sizeof(qx), h);
  }
  return h;
}

bool DecisionCache::keys_match(const Entry& e, const Query& q) {
  if (e.db_uid != q.db_uid ||
      e.selector_fingerprint != q.selector_fingerprint ||
      e.has_incumbent != q.has_incumbent ||
      e.incumbent_key != q.incumbent_key ||
      e.raw_bits.size() != q.resources->size()) {
    return false;
  }
  for (std::size_t i = 0; i < e.raw_bits.size(); ++i) {
    if (e.raw_bits[i] != std::bit_cast<std::uint64_t>((*q.resources)[i])) {
      return false;
    }
  }
  return true;
}

const std::optional<Decision>* DecisionCache::lookup(const Query& q) const {
  util::MutexLock lock(mutex_);
  auto it = entries_.find(hash_query(q));
  if (it == entries_.end() || !keys_match(it->second, q)) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.db_epoch != q.db_epoch) {
    // Same inputs, mutated database: the memoized decision may no longer
    // match what a fresh evaluation would produce.
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.decision;
}

void DecisionCache::store(const Query& q,
                          const std::optional<Decision>& decision) {
  if (max_entries_ == 0) return;
  util::MutexLock lock(mutex_);
  Entry entry;
  entry.db_uid = q.db_uid;
  entry.db_epoch = q.db_epoch;
  entry.selector_fingerprint = q.selector_fingerprint;
  entry.has_incumbent = q.has_incumbent;
  entry.incumbent_key = q.incumbent_key;
  entry.raw_bits.resize(q.resources->size());
  for (std::size_t i = 0; i < q.resources->size(); ++i) {
    entry.raw_bits[i] = std::bit_cast<std::uint64_t>((*q.resources)[i]);
  }
  entry.decision = decision;
  std::uint64_t h = hash_query(q);
  if (entries_.size() >= max_entries_ && !entries_.contains(h)) {
    entries_.clear();
    ++stats_.evictions;
  }
  entries_[h] = std::move(entry);
}

void DecisionCache::clear() {
  util::MutexLock lock(mutex_);
  entries_.clear();
}

}  // namespace avf::adapt
