#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::sim {

namespace detail {
void report_detached_exception(Simulator& sim, std::exception_ptr e) {
  sim.record_exception(e);
}

void deregister_detached(Simulator& sim, void* frame) noexcept {
  sim.detached_done(frame);
}
}  // namespace detail

Simulator::~Simulator() {
  // Destroying a root frame runs the destructors of its locals, which in
  // turn destroy any awaited child Task frames — so only roots are tracked.
  // Destruction happens in spawn order: the tracking map is keyed on frame
  // *addresses*, so iterating it directly would destroy frames in
  // address-hash order — nondeterministic across runs (ASLR), and locals'
  // destructors can produce observable effects (log lines).
  std::vector<std::pair<std::uint64_t, void*>> frames;
  frames.reserve(detached_.size());
  // avf-srclint: allow(src.unordered-iteration the hash order is erased by the sort below; destruction runs in spawn order)
  for (const auto& [frame, seq] : detached_) frames.emplace_back(seq, frame);
  detached_.clear();
  std::sort(frames.begin(), frames.end());
  for (const auto& [seq, frame] : frames) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void EventHandle::cancel() {
  // The lock keeps the record alive until the heap has let go of it; its
  // callback, with the state it captures, dies when this returns.
  auto rec = rec_.lock();
  if (rec != nullptr && rec->heap_index >= 0) rec->sim->remove(*rec);
}

bool EventHandle::pending() const {
  auto rec = rec_.lock();
  return rec != nullptr && rec->heap_index >= 0;
}

void Simulator::remove(EventHandle::Record& rec) {
  remove_at(static_cast<std::size_t>(rec.heap_index));
}

void Simulator::place(std::size_t i, Entry&& entry) {
  entry.rec->heap_index = static_cast<std::int64_t>(i);
  heap_[i] = std::move(entry);
}

void Simulator::sift_up(std::size_t i) {
  Entry moving = std::move(heap_[i]);
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!moving.fires_before(heap_[parent])) break;
    place(i, std::move(heap_[parent]));
    i = parent;
  }
  place(i, std::move(moving));
}

void Simulator::sift_down(std::size_t i) {
  Entry moving = std::move(heap_[i]);
  std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].fires_before(heap_[child])) ++child;
    if (!heap_[child].fires_before(moving)) break;
    place(i, std::move(heap_[child]));
    i = child;
  }
  place(i, std::move(moving));
}

Simulator::Entry Simulator::remove_at(std::size_t i) {
  Entry out = std::move(heap_[i]);
  out.rec->heap_index = -1;
  Entry last = std::move(heap_.back());
  heap_.pop_back();
  if (i < heap_.size()) {
    // The last entry fills the hole and moves whichever way restores the
    // order: up if it fires before the hole's parent, else down.
    bool up = i > 0 && last.fires_before(heap_[(i - 1) / 2]);
    place(i, std::move(last));
    if (up) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }
  return out;
}

EventHandle Simulator::schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0.0) {
    throw std::invalid_argument(
        avf::util::format("negative event delay: {}", delay));
  }
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    throw std::invalid_argument(avf::util::format(
        "event scheduled in the past: {} < now {}", when, now_));
  }
  auto rec = std::make_shared<EventHandle::Record>();
  rec->fn = std::move(fn);
  rec->sim = this;
  if (when > max_event_time_) max_event_time_ = when;
  EventHandle handle(rec);
  heap_.push_back(Entry{when, next_seq_++, std::move(rec)});
  sift_up(heap_.size() - 1);
  return handle;
}

void Simulator::spawn(Task<> task) {
  std::coroutine_handle<> h = task.release(*this);
  detached_.emplace(h.address(), next_spawn_seq_++);
  schedule(0.0, [h] { h.resume(); });
}

void Simulator::record_exception(std::exception_ptr e) {
  if (!pending_exception_) pending_exception_ = e;
}

void Simulator::fire_next() {
  // The entry taken out holds the only strong reference to the record:
  // cancel() during the callback is a no-op, and the callback's captured
  // state dies with this scope.
  Entry entry = remove_at(0);
  now_ = entry.time;
  ++events_processed_;
  entry.rec->fn();
}

void Simulator::rethrow_if_failed() {
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_next();
  rethrow_if_failed();
  return true;
}

void Simulator::run() {
  while (!heap_.empty()) {
    fire_next();
    rethrow_if_failed();
  }
  // The seed queue popped every cancelled entry in time order, so a
  // drained run left now() at the largest time ever scheduled, cancelled
  // events included.  Removal skips those pops; keep that final clock.
  if (max_event_time_ > now_) now_ = max_event_time_;
}

void Simulator::run_until(SimTime t) {
  if (t < now_) {
    throw std::invalid_argument(
        avf::util::format("run_until into the past: {} < now {}", t, now_));
  }
  while (!heap_.empty() && heap_.front().time <= t) {
    fire_next();
    rethrow_if_failed();
  }
  now_ = t;
}

}  // namespace avf::sim
