// Discrete-event simulator kernel.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (FIFO via a sequence number).  Simulated processes are
// coroutines (see task.hpp); the simulator only ever resumes them from its
// event loop, never reentrantly, so process code observes plain sequential
// semantics at each timestamp.
//
// The event queue is one binary min-heap on (time, seq) whose records know
// their heap slot, so cancellation is *real* removal in O(log n): the
// cancelled entry swaps with the last one, which then sifts up or down.
// The seed's single priority_queue cancelled by tombstone instead and kept
// every dead entry until its timestamp drained, so the heavy
// cancel/reschedule traffic of fluid resources grew the queue without
// bound.  (time, seq) is a strict total order, so the fire order is exactly
// the one that queue produced.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/task.hpp"
#include "sim/types.hpp"

namespace avf::sim {

class Simulator;

/// Handle to a scheduled event; allows cancellation.  Default-constructed
/// handles are inert.  Cancelling an already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  bool pending() const;

  struct Record {
    std::function<void()> fn;
    /// Slot in the owning simulator's heap; -1 once fired or cancelled.
    std::int64_t heap_index = -1;
    Simulator* sim = nullptr;
  };

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<Record> rec) : rec_(std::move(rec)) {}
  std::weak_ptr<Record> rec_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys the frames of spawned processes still suspended mid-await —
  /// a completed detached frame self-destroys at final suspend, but one the
  /// run never resumed again would otherwise be lost when the event queue
  /// (holding the only handle to it) dies.
  ~Simulator();

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, std::function<void()> fn);
  /// Schedule at an absolute time >= now().
  EventHandle schedule_at(SimTime when, std::function<void()> fn);

  /// Launch a detached process coroutine; its body starts at the current
  /// time, after already-queued events at this timestamp.
  void spawn(Task<> task);

  /// Run until the event queue drains; throws the first exception escaping a
  /// detached process.
  void run();
  /// Run events with time <= `t`, then set now() = t.
  void run_until(SimTime t);
  /// Execute the next live event; returns false when none remain.
  bool step();

  /// Awaitable: suspend the calling process for `dt` seconds.
  ///   co_await sim.delay(0.5);
  auto delay(SimTime dt) {
    struct Awaiter {
      Simulator& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule(dt, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Awaitable: yield to other events queued at the current timestamp.
  auto yield() { return delay(0.0); }

  /// Resume `h` via a zero-delay event — the only sanctioned way for
  /// non-process code (resources, mailboxes) to wake a process.
  void resume_soon(std::coroutine_handle<> h) {
    schedule(0.0, [h] { h.resume(); });
  }

  /// Number of events processed so far (for micro-benchmarks/tests).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Live (not cancelled, not fired) events currently queued.
  std::size_t queued_events() const { return heap_.size(); }
  /// Always 0: the heap removes a cancelled event at once, with no
  /// tombstones to compact and no far tier.  Kept because avf_bench
  /// reports both counts.
  std::uint64_t compactions() const { return 0; }
  std::uint64_t far_removals() const { return 0; }

  /// Allocate a fresh consumer identity for resource accounting.
  OwnerId new_owner_id() { return ++last_owner_id_; }

  // Internal: detached-process exception reporting (see task.hpp).
  void record_exception(std::exception_ptr e);
  // Internal: a detached frame completed and is about to self-destroy.
  void detached_done(void* frame) noexcept { detached_.erase(frame); }
  // Internal: EventHandle::cancel() routes here for real removal.
  void remove(EventHandle::Record& rec);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::shared_ptr<EventHandle::Record> rec;

    bool fires_before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  /// Move `entry` into slot `i` and record the slot in its record.
  void place(std::size_t i, Entry&& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Take slot `i` out of the heap and restore the heap order.
  Entry remove_at(std::size_t i);

  /// Fire the earliest event; the caller has checked the heap is not empty.
  void fire_next();
  void rethrow_if_failed();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  OwnerId last_owner_id_ = kNoOwner;

  std::vector<Entry> heap_;  // binary min-heap on (time, seq)

  /// Largest time ever scheduled.  run() leaves now() here once drained —
  /// the final clock of the seed queue, which popped every cancelled
  /// entry in time order.
  SimTime max_event_time_ = 0.0;

  std::exception_ptr pending_exception_;
  // Live spawned frames (see ~Simulator), each tagged with its spawn
  // sequence number so teardown destroys them in spawn order.  Iterating
  // the hash map directly would walk pointer-valued keys in address order —
  // nondeterministic across runs, and frame destruction runs coroutine
  // locals' destructors, which may log or touch shared state.
  std::unordered_map<void*, std::uint64_t> detached_;
  std::uint64_t next_spawn_seq_ = 0;
};

}  // namespace avf::sim
