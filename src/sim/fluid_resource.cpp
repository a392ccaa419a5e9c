#include "sim/fluid_resource.hpp"

#include <algorithm>
#include "util/fmt.hpp"
#include <stdexcept>
#include <vector>

namespace avf::sim {

namespace {
// Work amounts are ops (>= 1e3 scale) or bytes; anything below this is done.
constexpr double kRemainingEpsilon = 1e-7;
}  // namespace

FluidResource::FluidResource(Simulator& sim, std::string name, double capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: capacity must be > 0, got {}", name_,
                    capacity));
  }
}

void FluidResource::set_capacity(double capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: capacity must be > 0, got {}", name_,
                    capacity));
  }
  ++full_reallocs_;
  SimTime now = sim_.now();
  advance_virtual(now);
  capacity_ = capacity;
  // The level and the capped/fair boundary are normalized (capacity
  // cancels out of both), so only capped flows — whose absolute rates
  // scale with the capacity — need touching.  Fair flows keep their fixed
  // virtual finish; the virtual clock simply runs at the new speed.
  std::vector<std::uint64_t> done;
  for (const FlowKey& key : capped_by_ratio_) {
    Request& r = *by_id_.at(key.second);
    credit(r, now);
    if (finished(r, now)) {
      done.push_back(key.second);
      continue;
    }
    double rate = r.ncap * capacity_;
    if (rate == r.rate && (rate <= 0.0 || r.completion.pending())) {
      if (rate > 0.0) ++rate_keeps_;
      continue;
    }
    r.rate = rate;
    ++rate_rescales_;
    if (rate > 0.0) {
      schedule_completion(by_id_.at(key.second));
    } else {
      r.completion.cancel();
    }
  }
  for (std::uint64_t id : done) {
    RequestIt it = by_id_.at(id);
    leave_capped(*it);
    retire(it);
  }
  if (requests_.empty()) {
    reset_drained();
    return;
  }
  rebalance();
  finalize();
}

void FluidResource::slot_changed(const ShareSlotPtr& slot) {
  if (slot_uses_.find(slot.get()) == slot_uses_.end()) {
    // No in-flight request holds this slot: nothing a rebuild could
    // change.  (Future requests pick up the new cap on arrival.)
    ++noop_slot_reallocs_;
    return;
  }
  reallocate();
}

void FluidResource::add_request(double amount, ShareSlotPtr slot,
                                OwnerId owner, std::coroutine_handle<> h) {
  if (!slot) {
    throw std::invalid_argument(
        avf::util::format("resource {}: null share slot", name_));
  }
  if (slot->weight <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: non-positive weight {}", name_,
                    slot->weight));
  }
  SimTime now = sim_.now();
  advance_virtual(now);
  EventMark mark{boundary_crossings_, level_updates_};
  requests_.push_back(Request{amount, 0.0, now, std::move(slot), owner, h,
                              EventHandle{}});
  RequestIt it = std::prev(requests_.end());
  register_request(it);
  enter_fair(*it);
  it->fair = true;
  rebalance();
  finish_incremental(mark, &*it);
}

void FluidResource::register_request(RequestIt it) {
  it->id = next_request_id_++;
  by_id_.emplace(it->id, it);
  owner_index_[it->owner].push_back(&*it);
  ++slot_uses_[it->slot.get()];
}

FluidResource::RequestIt FluidResource::erase_request(RequestIt it) {
  const Request& r = *it;
  by_id_.erase(r.id);
  if (auto oi = owner_index_.find(r.owner); oi != owner_index_.end()) {
    std::erase(oi->second, &r);
    if (oi->second.empty()) owner_index_.erase(oi);
  }
  if (auto su = slot_uses_.find(r.slot.get()); su != slot_uses_.end()) {
    if (--su->second == 0) slot_uses_.erase(su);
  }
  return requests_.erase(it);
}

FluidResource::RequestIt FluidResource::retire(RequestIt it) {
  it->completion.cancel();
  sim_.resume_soon(it->waiter);
  return erase_request(it);
}

void FluidResource::credit(Request& r, SimTime now) {
  double dt = now - r.credited_at;
  r.credited_at = now;
  if (dt <= 0.0 || r.rate <= 0.0) return;
  double delta = std::min(r.rate * dt, r.remaining);
  r.remaining -= delta;
  add_served(r.owner, delta);
}

void FluidResource::add_served(OwnerId owner, double delta) {
  if (owner != kNoOwner) served_[owner].add(delta);
  total_served_.add(delta);
}

bool FluidResource::finished(const Request& r, SimTime now) const {
  if (r.remaining <= kRemainingEpsilon) return true;
  // Residual so small the completion delay would not advance the clock:
  // treat as done, otherwise the completion event would fire at the same
  // timestamp, credit zero progress, and respin forever.
  return r.rate > 0.0 && now + r.remaining / r.rate <= now;
}

bool FluidResource::fair_finished(const Request& r, SimTime now) const {
  if (vtime_ >= r.vfinish) return true;
  // finalize() schedules the head at now + (vfinish - vtime_) / speed; if
  // that sum cannot move the clock, waiting would refire at this timestamp
  // forever.  `remaining` is not consulted: at a large vtime_ it disagrees
  // with the virtual distance by a few ulps.
  double speed = mu_ * capacity_;
  return speed > 0.0 && now + (r.vfinish - vtime_) / speed <= now;
}

FluidResource::RequestIt FluidResource::complete_fair(RequestIt it) {
  Request& r = *it;
  credit_fair(r);
  // Whatever rounding left over is exactly the work still owed.
  if (r.remaining > 0.0) {
    add_served(r.owner, r.remaining);
    r.remaining = 0.0;
  }
  return retire(it);
}

void FluidResource::schedule_completion(RequestIt it) {
  it->completion.cancel();
  it->completion = sim_.schedule(it->remaining / it->rate,
                                 [this, it] { on_completion(it); });
}

void FluidResource::on_completion(RequestIt it) {
  SimTime now = sim_.now();
  advance_virtual(now);
  credit(*it, now);
  if (!finished(*it, now)) {
    // Floating-point leftover big enough to matter: keep serving it.
    schedule_completion(it);
    return;
  }
  EventMark mark{boundary_crossings_, level_updates_};
  leave_capped(*it);
  retire(it);
  rebalance();
  finish_incremental(mark, nullptr);
}

void FluidResource::advance_virtual(SimTime now) {
  double dt = now - v_updated_at_;
  if (dt > 0.0) vtime_ += mu_ * capacity_ * dt;
  v_updated_at_ = now;
}

double FluidResource::level() const {
  if (fair_count_ == 0) return 0.0;
  return std::max(0.0, (1.0 - s_ncap_.value()) / w_fair_.value());
}

void FluidResource::credit_fair(Request& r) {
  double delta = r.weight * (vtime_ - r.vcredit);
  r.vcredit = vtime_;
  r.credited_at = sim_.now();
  if (delta <= 0.0) return;
  delta = std::min(delta, r.remaining);
  r.remaining -= delta;
  add_served(r.owner, delta);
}

void FluidResource::enter_fair(Request& r) {
  r.ncap = std::clamp(r.slot->cap, 0.0, 1.0);
  r.weight = r.slot->weight;
  r.ratio = r.ncap / r.weight;
  r.vcredit = vtime_;
  r.vfinish = vtime_ + r.remaining / r.weight;
  fair_by_ratio_.insert({r.ratio, r.id});
  fair_by_finish_.insert({r.vfinish, r.id});
  w_fair_.add(r.weight);
  ++fair_count_;
}

void FluidResource::leave_fair(const Request& r) {
  fair_by_ratio_.erase({r.ratio, r.id});
  fair_by_finish_.erase({r.vfinish, r.id});
  w_fair_.sub(r.weight);
  if (--fair_count_ == 0) w_fair_.reset();
}

void FluidResource::leave_capped(const Request& r) {
  capped_by_ratio_.erase({r.ratio, r.id});
  s_ncap_.sub(r.ncap);
  if (--capped_count_ == 0) s_ncap_.reset();
}

void FluidResource::demote_to_capped(RequestIt it) {
  Request& r = *it;
  credit_fair(r);  // no-op when the flow was (re)inserted at vtime_
  leave_fair(r);
  capped_by_ratio_.insert({r.ratio, r.id});
  s_ncap_.add(r.ncap);
  ++capped_count_;
  ++boundary_crossings_;
  double rate = r.ncap * capacity_;
  // A flow that was continuously capped at this same rate (rebuilds pass
  // through here with r.fair still naming the previous side) keeps its
  // pending completion event — its absolute fire time is already right.
  bool keep = !r.fair && rate == r.rate &&
              (rate <= 0.0 || r.completion.pending());
  r.fair = false;
  if (keep) {
    if (rate > 0.0) ++rate_keeps_;
    return;
  }
  r.rate = rate;
  ++rate_rescales_;
  if (rate > 0.0) {
    schedule_completion(it);
  } else {
    r.completion.cancel();
  }
}

void FluidResource::promote_to_fair(RequestIt it) {
  Request& r = *it;
  credit(r, sim_.now());
  r.completion.cancel();
  leave_capped(r);
  r.fair = true;
  r.rate = 0.0;
  r.vcredit = vtime_;
  r.vfinish = vtime_ + r.remaining / r.weight;
  fair_by_ratio_.insert({r.ratio, r.id});
  fair_by_finish_.insert({r.vfinish, r.id});
  w_fair_.add(r.weight);
  ++fair_count_;
  ++boundary_crossings_;
}

void FluidResource::rebalance() {
  // Every move strictly raises the level: demoting a fair flow with
  // ratio <= mu removes weight faster than spare capacity, promoting a
  // capped flow with ratio > mu' frees more cap than the weight it adds.
  // A monotonically rising level cannot revisit a configuration, so the
  // loop terminates; the guard below is pure paranoia against FP edge
  // cases at exact-equality boundaries.
  std::size_t guard = 4 * requests_.size() + 8;
  bool moved = true;
  while (moved) {
    moved = false;
    while (fair_count_ > 0) {
      double mu = level();
      FlowKey head = *fair_by_ratio_.begin();
      if (!(head.first <= mu)) break;
      demote_to_capped(by_id_.at(head.second));
      moved = true;
      if (guard-- == 0) return;
    }
    while (capped_count_ > 0) {
      FlowKey tail = *std::prev(capped_by_ratio_.end());
      Request& r = *by_id_.at(tail.second);
      // Level this flow would see as a fair flow; strictly-greater keeps
      // exact cap==share ties capped (either side gives the same rate).
      double mu_if = (1.0 - (s_ncap_.value() - r.ncap)) /
                     (w_fair_.value() + r.weight);
      if (!(r.ratio > std::max(0.0, mu_if))) break;
      promote_to_fair(by_id_.at(tail.second));
      moved = true;
      if (guard-- == 0) return;
    }
  }
}

void FluidResource::finalize() {
  double mu = level();
  if (mu != mu_) {
    mu_ = mu;
    ++level_updates_;
  }
  fair_head_.cancel();
  if (fair_count_ == 0) return;
  double speed = mu_ * capacity_;
  if (speed <= 0.0) return;  // capped flows saturate the capacity: starved
  double vf = fair_by_finish_.begin()->first;
  double delay = std::max(0.0, (vf - vtime_) / speed);
  fair_head_ = sim_.schedule(delay, [this] { on_fair_head(); });
}

void FluidResource::finish_incremental(EventMark mark,
                                       const Request* arrival) {
  if (requests_.empty()) {
    reset_drained();
  } else {
    finalize();
  }
  ++sparse_events_;
  // A newcomer that settled capped got there by its own single demotion:
  // that is its placement, not another flow crossing the boundary.
  bool own_fair = arrival != nullptr && arrival->fair;
  std::uint64_t own_crossings = arrival != nullptr && !own_fair ? 1 : 0;
  std::uint64_t crossed = boundary_crossings_ - mark.crossings - own_crossings;
  std::size_t others = requests_.size() - (arrival != nullptr ? 1 : 0);
  flows_skipped_ += others - std::min<std::uint64_t>(others, crossed);
  bool level_moved = level_updates_ != mark.level_updates &&
                     fair_count_ > (own_fair ? 1u : 0u);
  if (crossed == 0 && !level_moved) ++fast_reallocs_;
}

void FluidResource::on_fair_head() {
  SimTime now = sim_.now();
  advance_virtual(now);
  EventMark mark{boundary_crossings_, level_updates_};
  bool removed = false;
  while (fair_count_ > 0) {
    RequestIt it = by_id_.at(fair_by_finish_.begin()->second);
    if (!fair_finished(*it, now)) break;
    leave_fair(*it);
    complete_fair(it);
    removed = true;
  }
  if (!removed) {
    // The clock stopped short of the head's finish by rounding; the same
    // quantity now yields a delay that does advance it.
    finalize();
    return;
  }
  rebalance();
  finish_incremental(mark, nullptr);
}

void FluidResource::reallocate() {
  ++full_reallocs_;
  SimTime now = sim_.now();
  advance_virtual(now);
  double old_mu = mu_;
  // Set membership is re-derived below; clear first so the sweep can erase
  // requests without set bookkeeping.
  capped_by_ratio_.clear();
  fair_by_ratio_.clear();
  fair_by_finish_.clear();
  s_ncap_.reset();
  w_fair_.reset();
  capped_count_ = 0;
  fair_count_ = 0;
  for (auto it = requests_.begin(); it != requests_.end();) {
    Request& r = *it;
    if (r.fair) {
      credit_fair(r);
      if (fair_finished(r, now)) {
        it = complete_fair(it);
        continue;
      }
    } else {
      credit(r, now);
      if (finished(r, now)) {
        it = retire(it);
        continue;
      }
    }
    ++it;
  }
  if (requests_.empty()) {
    reset_drained();
    return;
  }
  // r.fair keeps naming the *previous* side until the partition settles;
  // demote_to_capped() uses it to keep still-valid completion events.
  for (Request& r : requests_) enter_fair(r);
  rebalance();
  double mu = level();
  for (const FlowKey& key : fair_by_finish_) {
    Request& r = *by_id_.at(key.second);
    if (!r.fair) {
      // Settled fair after a capped past: drop its per-flow event.
      r.completion.cancel();
      r.rate = 0.0;
      r.fair = true;
    } else if (mu == old_mu) {
      ++rate_keeps_;
    }
  }
  finalize();
}

void FluidResource::reset_drained() {
  capped_by_ratio_.clear();
  fair_by_ratio_.clear();
  fair_by_finish_.clear();
  s_ncap_.reset();
  w_fair_.reset();
  capped_count_ = 0;
  fair_count_ = 0;
  fair_head_.cancel();
  vtime_ = 0.0;
  mu_ = 0.0;
}

// ---------------------------------------------------------------------------
// Accounting queries.
// ---------------------------------------------------------------------------

double FluidResource::inflight_progress(const Request& r, SimTime now) const {
  if (r.fair) {
    double vnow = vtime_ + mu_ * capacity_ * std::max(0.0, now - v_updated_at_);
    double delta = r.weight * (vnow - r.vcredit);
    if (delta <= 0.0) return 0.0;
    return std::min(delta, r.remaining);
  }
  double dt = now - r.credited_at;
  if (dt <= 0.0) return 0.0;
  return std::min(r.rate * dt, r.remaining);
}

double FluidResource::served(OwnerId owner) const {
  // Account the in-flight progress since each request's credit point
  // without mutating.  The owner index iterates in arrival order — the
  // same order (and the same float operations) as a full-list scan.
  double base = 0.0;
  if (auto it = served_.find(owner); it != served_.end()) {
    base = it->second.value();
  }
  SimTime now = sim_.now();
  if (auto oi = owner_index_.find(owner); oi != owner_index_.end()) {
    // avf-srclint: allow(src.float-accum the owner index lists requests in arrival order, matching the full-list scan it replaced)
    for (const Request* r : oi->second) base += inflight_progress(*r, now);
  }
  return base;
}

double FluidResource::total_served() const {
  double base = total_served_.value();
  SimTime now = sim_.now();
  // avf-srclint: allow(src.float-accum requests_ is arrival-ordered, so the summation order is pinned)
  for (const Request& r : requests_) base += inflight_progress(r, now);
  return base;
}

bool FluidResource::has_request(OwnerId owner) const {
  return owner_index_.find(owner) != owner_index_.end();
}

double FluidResource::allocated_rate() const {
  double sum = 0.0;
  for (const Request& r : requests_) {
    // avf-srclint: allow(src.float-accum requests_ is arrival-ordered, so the summation order is pinned)
    sum += r.fair ? mu_ * capacity_ * r.weight : r.rate;
  }
  return sum;
}

}  // namespace avf::sim
