// Reference oracle for sim::FluidResource: the explicit water-filling pass.
//
// Every arrival, departure and capacity change credits all flows, sweeps
// the finished ones and recomputes the weighted max-min allocation from
// scratch — O(N) per event and obviously correct.  FluidResource keeps the
// same solution incrementally (GPS virtual time plus a capped/fair
// partition); tests run one workload through both and compare completion
// times, the way PerfDatabase::predict_reference checks the grid index.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <iterator>
#include <list>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace avf::sim::testing {

class WaterFillingOracle {
 public:
  WaterFillingOracle(Simulator& sim, double capacity)
      : sim_(sim), capacity_(capacity) {}

  WaterFillingOracle(const WaterFillingOracle&) = delete;
  WaterFillingOracle& operator=(const WaterFillingOracle&) = delete;

  void set_capacity(double capacity) {
    capacity_ = capacity;
    full_reallocate();
  }

  /// Awaitable with FluidResource::consume's contract.
  auto consume(double amount, ShareSlotPtr slot) {
    struct Awaiter {
      WaterFillingOracle& res;
      double amount;
      ShareSlotPtr slot;
      bool await_ready() const noexcept { return amount <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        res.requests_.push_back(
            Request{amount, 0.0, res.sim_.now(), 0.0, std::move(slot), h, {}});
        res.full_reallocate();
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, amount, std::move(slot)};
  }

 private:
  // Same completion threshold as the engine.
  static constexpr double kRemainingEpsilon = 1e-7;

  struct Request {
    double remaining;
    double rate;
    SimTime credited_at;
    double cap_rate;
    ShareSlotPtr slot;
    std::coroutine_handle<> waiter;
    EventHandle completion;
  };
  using RequestIt = std::list<Request>::iterator;

  void credit(Request& r, SimTime now) {
    double dt = now - r.credited_at;
    r.credited_at = now;
    if (dt <= 0.0 || r.rate <= 0.0) return;
    double delta = std::min(r.rate * dt, r.remaining);
    r.remaining -= delta;
  }

  bool finished(const Request& r, SimTime now) const {
    if (r.remaining <= kRemainingEpsilon) return true;
    return r.rate > 0.0 && now + r.remaining / r.rate <= now;
  }

  void schedule_completion(RequestIt it) {
    it->completion.cancel();
    it->completion = sim_.schedule(it->remaining / it->rate,
                                   [this, it] { on_completion(it); });
  }

  void on_completion(RequestIt it) {
    SimTime now = sim_.now();
    credit(*it, now);
    if (!finished(*it, now)) {
      schedule_completion(it);
      return;
    }
    sim_.resume_soon(it->waiter);
    requests_.erase(it);
    full_reallocate();
  }

  void full_reallocate() {
    SimTime now = sim_.now();

    // 1. Credit progress and complete any finished requests.
    for (Request& r : requests_) credit(r, now);
    for (auto it = requests_.begin(); it != requests_.end();) {
      if (finished(*it, now)) {
        it->completion.cancel();
        sim_.resume_soon(it->waiter);
        it = requests_.erase(it);
      } else {
        ++it;
      }
    }

    // 2. Water-filling: weighted max-min allocation under per-request caps.
    std::vector<Request*> all;
    std::vector<double> target;
    all.reserve(requests_.size());
    for (Request& r : requests_) {
      r.cap_rate = std::clamp(r.slot->cap, 0.0, 1.0) * capacity_;
      all.push_back(&r);
    }
    target.assign(all.size(), 0.0);
    std::vector<std::size_t> unfixed(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) unfixed[i] = i;
    double budget = capacity_;
    while (!unfixed.empty() && budget > 0.0) {
      double weight_sum = 0.0;
      for (std::size_t i : unfixed) weight_sum += all[i]->slot->weight;
      bool fixed_any = false;
      for (auto it = unfixed.begin(); it != unfixed.end();) {
        Request* r = all[*it];
        double cap_rate = r->cap_rate;
        double fair = budget * r->slot->weight / weight_sum;
        if (fair >= cap_rate) {
          target[*it] = cap_rate;
          budget -= cap_rate;
          it = unfixed.erase(it);
          fixed_any = true;
        } else {
          ++it;
        }
      }
      if (!fixed_any) {
        // Nobody hits a cap: split the remaining budget by weight.
        for (std::size_t i : unfixed) {
          target[i] = budget * all[i]->slot->weight / weight_sum;
        }
        break;
      }
      budget = std::max(budget, 0.0);
    }

    // 3. Apply: only flows whose rate changed get a new completion event.
    for (std::size_t i = 0; i < all.size(); ++i) {
      Request& r = *all[i];
      if (target[i] == r.rate && (r.rate <= 0.0 || r.completion.pending())) {
        continue;
      }
      r.rate = target[i];
      if (r.rate > 0.0) {
        schedule_completion(std::next(requests_.begin(),
                                      static_cast<std::ptrdiff_t>(i)));
      } else {
        r.completion.cancel();
      }
    }
  }

  Simulator& sim_;
  double capacity_;
  std::list<Request> requests_;
};

}  // namespace avf::sim::testing
