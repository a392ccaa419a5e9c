#include "sandbox/sandbox.hpp"

#include <algorithm>
#include "util/fmt.hpp"
#include <stdexcept>

namespace avf::sandbox {

namespace {

// The checks are negated comparisons so that NaN, which fails every
// comparison, is rejected too.
void validate_share(double share) {
  if (!(share > 0.0 && share <= 1.0)) {
    throw std::invalid_argument(
        avf::util::format("cpu share must be in (0, 1], got {}", share));
  }
}

void validate_positive(const char* what, double value) {
  if (!(value > 0.0)) {
    throw std::invalid_argument(
        avf::util::format("{} must be > 0, got {}", what, value));
  }
}

}  // namespace

Sandbox::Sandbox(sim::Host& host, std::string name, const Options& options)
    : host_(host),
      name_(std::move(name)),
      owner_(host.simulator().new_owner_id()),
      mode_(options.cpu_enforcement),
      quantum_(options.quantum),
      cpu_share_(options.cpu_share),
      net_bps_(options.net_bandwidth_bps),
      cpu_slot_(sim::make_share_slot()),
      net_mode_(options.net_enforcement),
      net_burst_window_(options.net_burst_window) {
  validate_share(cpu_share_);
  validate_positive("quantum", quantum_);
  validate_positive("net burst window", net_burst_window_);
  if (net_bps_) validate_positive("net bandwidth", *net_bps_);
  tokens_updated_ = host_.simulator().now();
  apply_cpu_cap();
}

sim::Task<> Sandbox::compute(double ops) {
  if (mode_ == CpuEnforcement::kQuantized) ensure_quantum_running();
  co_await host_.cpu().consume(ops, cpu_slot_, owner_);
}

void Sandbox::ensure_quantum_running() {
  if (quantum_event_.pending()) return;
  // Fresh activation: start at full speed with zero banked credit.
  entitled_cum_ = cpu_served();
  cpu_slot_->cap = 1.0;
  host_.cpu().slot_changed(cpu_slot_);
  schedule_quantum();
}

Sandbox::~Sandbox() {
  quantum_event_.cancel();
}

void Sandbox::set_cpu_share(double share) {
  validate_share(share);
  cpu_share_ = share;
  if (mode_ == CpuEnforcement::kQuantized) {
    // Reset the entitlement baseline so the loop does not "pay back" or
    // "catch up" service accrued under the previous share.
    entitled_cum_ = cpu_served();
  }
  apply_cpu_cap();
}

void Sandbox::apply_cpu_cap() {
  if (mode_ == CpuEnforcement::kFluid) {
    cpu_slot_->cap = cpu_share_;
    cpu_slot_->weight = cpu_share_;
  } else {
    // Quantized mode: the tick decides on/off; keep weight proportional so
    // competition among quantized sandboxes still splits by share.
    cpu_slot_->weight = cpu_share_;
  }
  host_.cpu().slot_changed(cpu_slot_);
}

void Sandbox::schedule_quantum() {
  quantum_event_ =
      host_.simulator().schedule(quantum_, [this] { quantum_tick(); });
}

void Sandbox::quantum_tick() {
  // The enforcement loop only runs while the process has CPU work in
  // flight; once it goes idle the loop stops and the event queue can drain
  // (compute() re-arms it).  Idleness also must not bank credit, which the
  // restart handles by resetting the entitlement baseline.
  if (!host_.cpu().has_request(owner_)) {
    return;  // go idle: no reschedule, queue can drain
  }
  entitled_cum_ += cpu_share_ * host_.cpu_speed() * quantum_;
  double served = cpu_served();
  // Ahead of entitlement -> stall for the next quantum; behind -> full speed.
  double new_cap = served >= entitled_cum_ ? 0.0 : 1.0;
  if (new_cap != cpu_slot_->cap) {
    cpu_slot_->cap = new_cap;
    host_.cpu().slot_changed(cpu_slot_);
  }
  // Bound banked credit to a few quanta so a brief dip cannot be repaid
  // with a long full-speed burst (the paper's sandbox bounds *average*
  // usage over a short window, not over all history).
  double max_credit = cpu_share_ * host_.cpu_speed() * 4.0 * quantum_;
  entitled_cum_ = std::min(entitled_cum_, served + max_credit);
  schedule_quantum();
}

void Sandbox::attach_endpoint(sim::Endpoint& endpoint) {
  endpoint.set_owner(owner_);
  endpoints_.push_back(&endpoint);
  // Only the new endpoint's cap can have changed; re-deriving the cap of
  // every already-attached endpoint (the previous behavior) made attaching
  // N endpoints O(N^2) water-filling passes at world setup.
  apply_net_cap(endpoint);
}

void Sandbox::set_net_bandwidth(std::optional<double> bps) {
  if (bps) validate_positive("net bandwidth", *bps);
  net_bps_ = bps;
  apply_net_caps();
}

void Sandbox::apply_net_caps() {
  for (sim::Endpoint* ep : endpoints_) apply_net_cap(*ep);
}

void Sandbox::apply_net_cap(sim::Endpoint& endpoint) {
  auto slot = endpoint.share_slot();
  double cap = 1.0;
  // In delayed mode the pacing happens in send(); the link stays open.
  if (net_bps_ && net_mode_ == NetEnforcement::kFluid) {
    cap = std::min(1.0, *net_bps_ / endpoint.out().capacity());
  }
  if (slot->cap == cap) return;  // unchanged cap cannot move any allocation
  slot->cap = cap;
  // Narrow notification: an O(1) no-op unless the slot has flows in flight.
  endpoint.out().slot_changed(slot);
}

sim::Task<> Sandbox::send(sim::Endpoint& endpoint, sim::Message msg) {
  if (net_mode_ == NetEnforcement::kDelayed && net_bps_) {
    sim::Simulator& sim = host_.simulator();
    // Replenish, capped at one burst window's worth.
    double rate = *net_bps_;
    double burst = rate * net_burst_window_;
    tokens_ = std::min(burst,
                       tokens_ + rate * (sim.now() - tokens_updated_));
    tokens_updated_ = sim.now();
    double needed = static_cast<double>(msg.wire_size());
    if (tokens_ < needed) {
      double wait = (needed - tokens_) / rate;
      co_await sim.delay(wait);
      // The wait earned exactly the shortfall; the burst clamp applies
      // only to idle accumulation, never to tokens a sender waited for.
      tokens_ = needed;
      tokens_updated_ = sim.now();
    }
    tokens_ -= needed;
  }
  co_await endpoint.send(std::move(msg));
}

}  // namespace avf::sandbox
