#include "viz/tile_store.hpp"

namespace avf::viz {

TileStore::TileStore(Options options)
    : options_(options),
      // Sharding only helps once each shard can hold a useful slice of the
      // budget; small stores (tests, tight budgets) keep the exact
      // single-ring CLOCK semantics the eviction tests pin down.
      shard_count_(options.byte_budget >= kMaxShards * kMinShardBudget
                       ? kMaxShards
                       : 1),
      shard_budget_(options.byte_budget / shard_count_) {}

TileStore::BlobPtr TileStore::find(
    const Key& key, std::uint64_t origin_tag) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    return nullptr;
  }
  Entry& entry = it->second;
  entry.referenced = true;  // CLOCK second chance
  ++shard.hits;
  shard.bytes_deduped += entry.payload->size();
  if (entry.origin_tag != origin_tag) ++shard.cross_origin_hits;
  return entry.payload;
}

TileStore::BlobPtr TileStore::insert(const Key& key, std::uint64_t origin_tag,
                                     Payload&& payload) {
  auto shared = std::make_shared<const util::Blob>(std::move(payload));
  if (options_.byte_budget == 0) return shared;  // pass-through, store off
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  auto [it, inserted] = shard.entries.emplace(
      key, Entry{shared, origin_tag, shard.ring.size(), true});
  // Two threads may race to build the same content; both payloads are
  // byte-identical (pure builders), the first insert wins.
  if (!inserted) return it->second.payload;
  shard.ring.push_back(key);
  shard.bytes += shared->size();
  shard.evict_to_budget(shard_budget_);
  return shared;
}

TileStore::BlobPtr TileStore::replace_after_collision(const Key& key,
                                                      std::uint64_t tag,
                                                      Payload&& rebuilt) {
  auto shared = std::make_shared<const util::Blob>(std::move(rebuilt));
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  ++shard.collisions;
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return shared;  // evicted meanwhile
  Entry& entry = it->second;
  shard.bytes -= entry.payload->size();
  shard.bytes += shared->size();
  entry.payload = shared;
  entry.origin_tag = tag;
  entry.referenced = true;
  shard.evict_to_budget(shard_budget_);
  return shared;
}

void TileStore::Shard::evict_to_budget(std::size_t budget) {
  // Second-chance CLOCK: the hand sweeps the ring; a referenced entry
  // spends its reference bit and survives one more revolution, anything
  // else is evicted — pinned or not.  Evicting a pinned entry is safe:
  // the map drops its reference but the caller's shared_ptr keeps the
  // payload bytes alive until the reply is sent (eviction-under-pin).
  // Termination: every step either clears a reference bit (finitely many)
  // or removes an entry.  The newest entry is never evicted below two
  // entries, so one oversized payload cannot evict itself.
  while (bytes > budget && ring.size() > 1) {
    if (hand >= ring.size()) hand = 0;
    auto it = entries.find(ring[hand]);
    Entry& entry = it->second;
    if (entry.referenced) {
      entry.referenced = false;
      ++hand;
      continue;
    }
    bytes -= entry.payload->size();
    bytes_evicted += entry.payload->size();
    ++evictions;
    // Swap-remove the ring slot; re-slot the moved key.
    ring[hand] = ring.back();
    ring.pop_back();
    if (hand < ring.size()) entries.find(ring[hand])->second.ring_slot = hand;
    entries.erase(it);
  }
}

TileStore::ShardCounters TileStore::Shard::counters() const {
  util::MutexLock lock(mutex);
  ShardCounters c;
  c.bytes = bytes;
  c.entries = entries.size();
  // Pinned = some holder besides the store (a caller, or a reply message
  // in flight) still holds the payload.  The ordered ring is scanned, not
  // the unordered map (determinism lint).
  for (const Key& key : ring) {
    if (entries.find(key)->second.payload.use_count() > 1) ++c.pinned;
  }
  c.hits = hits;
  c.misses = misses;
  c.evictions = evictions;
  c.bytes_deduped = bytes_deduped;
  c.bytes_evicted = bytes_evicted;
  c.cross_origin_hits = cross_origin_hits;
  c.collisions = collisions;
  return c;
}

// Aggregate counters are sums of per-shard-consistent snapshots, not a
// single instant across shards.
std::size_t TileStore::bytes_resident() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().bytes;
  }
  return total;
}

std::size_t TileStore::unique_entries() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().entries;
  }
  return total;
}

std::size_t TileStore::pinned_entries() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().pinned;
  }
  return total;
}

std::uint64_t TileStore::hits() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().hits;
  }
  return total;
}

std::uint64_t TileStore::misses() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().misses;
  }
  return total;
}

std::uint64_t TileStore::evictions() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().evictions;
  }
  return total;
}

std::uint64_t TileStore::bytes_deduped() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().bytes_deduped;
  }
  return total;
}

std::uint64_t TileStore::bytes_evicted() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().bytes_evicted;
  }
  return total;
}

std::uint64_t TileStore::cross_origin_hits() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().cross_origin_hits;
  }
  return total;
}

std::uint64_t TileStore::collisions() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].counters().collisions;
  }
  return total;
}

}  // namespace avf::viz
