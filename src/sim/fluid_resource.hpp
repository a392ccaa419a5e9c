// Fluid-flow shared resource with per-consumer caps.
//
// This is the single rate-sharing engine behind both CPUs (capacity in ops/s)
// and network links (capacity in bytes/s).  Concurrent requests share the
// capacity by weighted max-min fairness, with each request additionally
// limited to `slot->cap * capacity` — the sandbox's resource limit.  The
// semantics match the paper's virtual execution environment: when the sum of
// caps is below 1, every consumer receives *exactly* its cap (under-loaded
// guarantee, §5.1); when over-subscribed, capacity is split proportionally to
// weights below the caps.
//
// Requests progress as fluid flows under one incremental allocator, for
// every population from a single flow up.  Flows are bucketed by which
// constraint binds them: cap-limited flows sit in an ordered set keyed by
// ratio = ncap/weight (ncap = clamp(cap,0,1)); fair-share flows progress in
// GPS virtual time V with dV/dt = level * capacity, so a fair flow's finish
// point F = V_entry + remaining/weight is fixed on entry and only the
// *earliest* F needs a real simulator event.  The normalized water level
// mu = (1 - sum ncap_capped) / sum w_fair is maintained across arrivals,
// departures and capacity changes by moving only the flows that cross the
// capped/fair boundary (each move strictly raises mu, so rebalancing
// terminates); everything else is untouched.  An arrival or departure is
// O(log N + crossings), and a capacity change is O(capped flows) with no
// boundary motion at all (the level is capacity-invariant by
// construction).  The rates are the weighted max-min (water-filling)
// solution up to floating-point association; the explicit water-filling
// pass survives only as the test oracle in tests/sim/.  The virtual clock
// restarts at zero whenever the population drains.
//
// Served-unit accounting uses util::CompensatedSum (Neumaier) so the
// per-reschedule credit deltas of long churny runs (10k+ flows) do not
// drift: total_served() stays within ulp-scale error of the sum of
// served(owner) over all owners.
#pragma once

#include <coroutine>
#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "util/stats.hpp"

namespace avf::sim {

class FluidResource {
 public:
  /// `capacity` in units/second (> 0).
  FluidResource(Simulator& sim, std::string name, double capacity);

  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }

  /// Change total capacity; in-flight requests are re-allocated.
  void set_capacity(double capacity);

  /// Must be called after mutating any ShareSlot used by an in-flight
  /// request (the resource cannot observe the change on its own).  Always a
  /// full rebuild of the partition — slot mutations can change any flow's
  /// rate.
  void reallocate();

  /// Narrow variant of reallocate() for when exactly one slot was mutated:
  /// if no in-flight request uses `slot` this is an O(1) no-op (counted in
  /// noop_slot_reallocs()), otherwise it falls back to a full rebuild.  The
  /// sandbox cap plumbing calls this per endpoint, which turns the
  /// attach-time cap storm from O(endpoints^2) passes into O(endpoints).
  void slot_changed(const ShareSlotPtr& slot);

  /// Awaitable: consume `amount` units under the entitlement in `slot`.
  /// Completes when the full amount has been served.  `owner` attributes the
  /// consumption for accounting; pass kNoOwner to skip attribution.
  ///
  ///   co_await host.cpu().consume(1e6, my_slot, my_id);
  auto consume(double amount, ShareSlotPtr slot, OwnerId owner = kNoOwner) {
    struct Awaiter {
      FluidResource& res;
      double amount;
      ShareSlotPtr slot;
      OwnerId owner;
      bool await_ready() const noexcept { return amount <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        res.add_request(amount, std::move(slot), owner, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, amount, std::move(slot), owner};
  }

  /// Cumulative units served to `owner` up to the current simulated time
  /// (includes partial progress of in-flight requests).
  double served(OwnerId owner) const;
  /// Cumulative units served to all owners.
  double total_served() const;

  /// Number of in-flight requests.
  std::size_t active_requests() const { return requests_.size(); }

  /// Whether `owner` has a request in flight.
  bool has_request(OwnerId owner) const;

  /// Current aggregate allocated rate (units/s); <= capacity.
  double allocated_rate() const;

  // -- reallocation statistics (micro_viz_scale gates on these) -----------
  /// Full rebuilds: capacity changes and explicit reallocate() calls.
  std::uint64_t full_reallocs() const { return full_reallocs_; }
  /// Arrivals/departures that provably left every other flow's rate
  /// unchanged: no other flow crossed the capped/fair boundary and the
  /// level did not move under any other fair flow.
  std::uint64_t fast_reallocs() const { return fast_reallocs_; }
  /// Per-flow rate assignments where the rate actually changed (each one
  /// reschedules that flow's completion event).
  std::uint64_t rate_rescales() const { return rate_rescales_; }
  /// Flows inspected by a full rebuild whose rate was bit-identical —
  /// their completion events were left untouched.
  std::uint64_t rate_keeps() const { return rate_keeps_; }
  /// Other in-flight flows an incremental event did not touch — flows an
  /// O(N)-per-event allocator would have re-credited and rescheduled.
  std::uint64_t flows_skipped() const { return flows_skipped_; }
  /// Always 0: there is no engine migration any more.  Kept only because
  /// avf_bench/src/trace.cpp still reads it.
  std::uint64_t sparse_activations() const { return 0; }
  /// Arrivals/departures absorbed incrementally (no pass over the
  /// population).
  std::uint64_t sparse_events() const { return sparse_events_; }
  /// Flows moved across the capped/fair boundary by rebalancing — the only
  /// flows an incremental event touches.
  std::uint64_t boundary_crossings() const { return boundary_crossings_; }
  /// Water-level (mu) recomputations that produced a new level.
  std::uint64_t level_updates() const { return level_updates_; }
  /// slot_changed() calls that were O(1) no-ops (slot had no active flows).
  std::uint64_t noop_slot_reallocs() const { return noop_slot_reallocs_; }

 private:
  struct Request {
    double remaining;
    double rate = 0.0;        // current allocation, units/s (0 while fair)
    SimTime credited_at;      // capped progress has been credited up to here
    ShareSlotPtr slot;
    OwnerId owner;
    std::coroutine_handle<> waiter;
    EventHandle completion;   // capped flows only
    std::uint64_t id = 0;    // arrival order; deterministic set tie-break
    double ncap = 0.0;       // clamp(slot->cap, 0, 1) snapshot
    double weight = 0.0;     // slot->weight snapshot (sum consistency)
    double ratio = 0.0;      // ncap / weight
    double vfinish = 0.0;    // virtual time at which a fair flow completes
    double vcredit = 0.0;    // virtual time progress was credited up to
    bool fair = false;       // fair-share-limited (else cap-limited)
  };
  using RequestIt = std::list<Request>::iterator;
  /// (ratio|vfinish, id) — id breaks ties deterministically.
  using FlowKey = std::pair<double, std::uint64_t>;
  /// Counter snapshot taken before an incremental event mutates anything.
  struct EventMark {
    std::uint64_t crossings;
    std::uint64_t level_updates;
  };

  void add_request(double amount, ShareSlotPtr slot, OwnerId owner,
                   std::coroutine_handle<> h);
  /// Assign id and register in the lookup indexes.
  void register_request(RequestIt it);
  /// Remove from the lookup indexes and the request list (not from the
  /// boundary sets — callers own those).
  RequestIt erase_request(RequestIt it);
  /// Resume the waiter and drop the request.
  RequestIt retire(RequestIt it);
  /// Credit capped progress since `credited_at` at the current rate.
  void credit(Request& r, SimTime now);
  /// Per-owner + total served accumulation (Neumaier-compensated).
  void add_served(OwnerId owner, double delta);
  /// In-flight progress since the request's credit point, non-mutating.
  double inflight_progress(const Request& r, SimTime now) const;
  /// Capped completion criterion: either the residual is below epsilon or
  /// so small that the completion delay would not advance the clock (then
  /// the event would respin forever).
  bool finished(const Request& r, SimTime now) const;
  /// Fair completion criterion, phrased in the quantity the fair-head
  /// event is scheduled with: the virtual clock reached the finish point,
  /// or the delay to it cannot advance the real clock.
  bool fair_finished(const Request& r, SimTime now) const;
  /// Credit a finished fair flow's rounding residual so served() stays
  /// exact, then retire it.
  RequestIt complete_fair(RequestIt it);
  /// (Re)schedule the request's own completion event from its current
  /// remaining/rate; cancels any previous event.
  void schedule_completion(RequestIt it);
  /// A capped request's own completion event fired.
  void on_completion(RequestIt it);

  /// Advance GPS virtual time to `now` at the current level.  Must run
  /// before any event mutates the level, the capacity, or the population.
  void advance_virtual(SimTime now);
  /// Normalized water level mu = (1 - S_ncap) / W_fair, clamped >= 0.
  double level() const;
  /// Credit a fair flow up to the (already advanced) virtual time.
  void credit_fair(Request& r);
  /// Snapshot the slot and insert the flow on the fair side at vtime_.
  void enter_fair(Request& r);
  /// Drop a flow from the fair (resp. capped) side's sets and sums.
  void leave_fair(const Request& r);
  void leave_capped(const Request& r);
  void demote_to_capped(RequestIt it);
  void promote_to_fair(RequestIt it);
  /// Move flows across the capped/fair boundary until the partition is
  /// consistent with its own level.  Each move strictly raises mu, so this
  /// terminates; the iteration guard is pure paranoia.
  void rebalance();
  /// Recompute mu and (re)schedule the single fair-head completion event.
  void finalize();
  /// Finalize and count one arrival (`arrival` names the newcomer, already
  /// rebalanced into place) or one departure event (`arrival` null, the
  /// departed flows already erased and the partition rebalanced).
  void finish_incremental(EventMark mark, const Request* arrival);
  /// The fair-head event fired: complete every fair flow whose virtual
  /// finish has been reached.
  void on_fair_head();
  /// Population drained: drop the partition and restart the virtual clock.
  void reset_drained();

  Simulator& sim_;
  std::string name_;
  double capacity_;
  std::list<Request> requests_;

  double vtime_ = 0.0;            // GPS virtual time, dV/dt = mu * capacity
  SimTime v_updated_at_ = 0.0;    // real time vtime_ was advanced to
  double mu_ = 0.0;               // current normalized water level
  util::CompensatedSum s_ncap_;   // sum of ncap over capped flows
  util::CompensatedSum w_fair_;   // sum of weight over fair flows
  std::size_t capped_count_ = 0;
  std::size_t fair_count_ = 0;
  std::set<FlowKey> capped_by_ratio_;
  std::set<FlowKey> fair_by_ratio_;
  std::set<FlowKey> fair_by_finish_;
  EventHandle fair_head_;

  std::uint64_t next_request_id_ = 0;
  std::unordered_map<std::uint64_t, RequestIt> by_id_;
  /// Per-owner requests in arrival order — served(owner) accumulates
  /// in-flight progress in exactly the order a full-list scan would.
  std::unordered_map<OwnerId, std::vector<const Request*>> owner_index_;
  std::unordered_map<const ShareSlot*, std::size_t> slot_uses_;

  mutable std::unordered_map<OwnerId, util::CompensatedSum> served_;
  util::CompensatedSum total_served_;

  std::uint64_t full_reallocs_ = 0;
  std::uint64_t fast_reallocs_ = 0;
  std::uint64_t rate_rescales_ = 0;
  std::uint64_t rate_keeps_ = 0;
  std::uint64_t flows_skipped_ = 0;
  std::uint64_t sparse_events_ = 0;
  std::uint64_t boundary_crossings_ = 0;
  std::uint64_t level_updates_ = 0;
  std::uint64_t noop_slot_reallocs_ = 0;
};

}  // namespace avf::sim
