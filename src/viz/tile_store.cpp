#include "viz/tile_store.hpp"

namespace avf::viz {

TileStore::TileStore(Options options) : options_(options) {}

TileStore::Claim TileStore::claim_or_wait(const Key& key,
                                          std::uint64_t origin_tag) {
  std::shared_future<BlobPtr> pending;
  {
    util::MutexLock lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      Entry& entry = it->second;
      entry.referenced = true;  // CLOCK second chance
      ++hits_;
      bytes_deduped_ += entry.payload->size();
      if (entry.origin_tag != origin_tag) ++cross_origin_hits_;
      return {entry.payload, std::nullopt};
    }
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      ++misses_;
      std::promise<BlobPtr> build;
      in_flight_.emplace(key,
                         InFlight{build.get_future().share(), origin_tag});
      return {nullptr, std::move(build)};
    }
    ++hits_;
    if (it->second.origin_tag != origin_tag) ++cross_origin_hits_;
    pending = it->second.payload;
  }
  BlobPtr payload = pending.get();
  util::MutexLock lock(mutex_);
  bytes_deduped_ += payload->size();
  return {std::move(payload), std::nullopt};
}

void TileStore::settle(const Key& key, std::promise<BlobPtr>& build,
                       BlobPtr payload, std::exception_ptr error) {
  {
    util::MutexLock lock(mutex_);
    in_flight_.erase(key);
  }
  // Waiters hold their own shared_future, so the record can go first.
  if (error) {
    build.set_exception(std::move(error));
  } else {
    build.set_value(std::move(payload));
  }
}

TileStore::BlobPtr TileStore::insert(const Key& key, std::uint64_t origin_tag,
                                     Payload&& payload) {
  auto shared = std::make_shared<const util::Blob>(std::move(payload));
  if (options_.byte_budget == 0) return shared;  // pass-through, store off
  util::MutexLock lock(mutex_);
  auto [it, inserted] =
      entries_.emplace(key, Entry{shared, origin_tag, true});
  // Only a direct insert() can find the key resident; the store's entry
  // wins.
  if (!inserted) return it->second.payload;
  ring_.push_back(key);
  bytes_ += shared->size();
  evict_to_budget();
  return shared;
}

TileStore::BlobPtr TileStore::replace_after_collision(const Key& key,
                                                      std::uint64_t tag,
                                                      Payload&& rebuilt) {
  auto shared = std::make_shared<const util::Blob>(std::move(rebuilt));
  util::MutexLock lock(mutex_);
  ++collisions_;
  auto it = entries_.find(key);
  if (it == entries_.end()) return shared;  // evicted meanwhile
  Entry& entry = it->second;
  bytes_ -= entry.payload->size();
  bytes_ += shared->size();
  entry.payload = shared;
  entry.origin_tag = tag;
  entry.referenced = true;
  evict_to_budget();
  return shared;
}

void TileStore::evict_to_budget() {
  // Second-chance CLOCK: the hand sweeps the ring; a referenced entry
  // spends its reference bit and survives one more revolution, anything
  // else is evicted — pinned or not.  Evicting a pinned entry is safe:
  // the map drops its reference but the caller's shared_ptr keeps the
  // payload bytes alive until the reply is sent (eviction-under-pin).
  // Termination: every step either clears a reference bit (finitely many)
  // or removes an entry.  The newest entry is never evicted below two
  // entries, so one oversized payload cannot evict itself.
  while (bytes_ > options_.byte_budget && ring_.size() > 1) {
    if (hand_ >= ring_.size()) hand_ = 0;
    auto it = entries_.find(ring_[hand_]);
    Entry& entry = it->second;
    if (entry.referenced) {
      entry.referenced = false;
      ++hand_;
      continue;
    }
    bytes_ -= entry.payload->size();
    bytes_evicted_ += entry.payload->size();
    ++evictions_;
    ring_[hand_] = ring_.back();  // swap-remove the ring slot
    ring_.pop_back();
    entries_.erase(it);
  }
}

std::size_t TileStore::bytes_resident() const {
  util::MutexLock lock(mutex_);
  return bytes_;
}

std::size_t TileStore::unique_entries() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t TileStore::pinned_entries() const {
  // Pinned = some holder besides the store (a caller, or a reply message
  // in flight) still holds the payload.  The ordered ring is scanned, not
  // the unordered map (determinism lint).
  util::MutexLock lock(mutex_);
  std::size_t pinned = 0;
  for (const Key& key : ring_) {
    if (entries_.find(key)->second.payload.use_count() > 1) ++pinned;
  }
  return pinned;
}

std::uint64_t TileStore::hits() const {
  util::MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t TileStore::misses() const {
  util::MutexLock lock(mutex_);
  return misses_;
}

std::uint64_t TileStore::evictions() const {
  util::MutexLock lock(mutex_);
  return evictions_;
}

std::uint64_t TileStore::bytes_deduped() const {
  util::MutexLock lock(mutex_);
  return bytes_deduped_;
}

std::uint64_t TileStore::bytes_evicted() const {
  util::MutexLock lock(mutex_);
  return bytes_evicted_;
}

std::uint64_t TileStore::cross_origin_hits() const {
  util::MutexLock lock(mutex_);
  return cross_origin_hits_;
}

std::uint64_t TileStore::collisions() const {
  util::MutexLock lock(mutex_);
  return collisions_;
}

}  // namespace avf::viz
