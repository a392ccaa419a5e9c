#include "adapt/decision_cache.hpp"

#include <bit>

#include "util/hash.hpp"

namespace avf::adapt {

std::uint64_t DecisionCache::hash_query(const Query& q) {
  // The raw coordinate bits are hashed: they are what keys_match verifies,
  // so two points share a slot only by a true 64-bit hash collision.
  util::Fnv1aFold h;
  h.u64(q.db_uid).u64(q.selector_fingerprint).u64(q.has_incumbent ? 1 : 0);
  h.bytes(q.incumbent_key.data(), q.incumbent_key.size());
  for (double x : *q.resources) h.f64(x);
  return h.h;
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

}  // namespace avf::adapt
