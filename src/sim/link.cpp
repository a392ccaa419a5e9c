#include "sim/link.hpp"

#include <stdexcept>
#include <utility>

namespace avf::sim {

Link::Link(Simulator& sim, std::string name, double bandwidth_bps,
           double latency_s)
    : sim_(sim),
      name_(std::move(name)),
      latency_(latency_s),
      forward_(sim, name_ + ".fwd", bandwidth_bps),
      backward_(sim, name_ + ".bwd", bandwidth_bps) {
  if (latency_s < 0.0) {
    throw std::invalid_argument("link latency must be >= 0");
  }
}

void Link::set_bandwidth(double bps) {
  forward_.set_capacity(bps);
  backward_.set_capacity(bps);
}

Task<> Endpoint::send(Message msg) {
  msg.sent_at = sim_.now();
  std::size_t size = msg.wire_size();
  co_await out_->consume(static_cast<double>(size), slot_, owner_);
  bytes_sent_ += size;
  Endpoint* peer = peer_;
  // Deliver one propagation delay after the last byte leaves.  Captured by
  // value; the event owns the message until delivery.
  sim_.schedule(latency_, [peer, m = std::move(msg)]() mutable {
    peer->deliver(std::move(m));
  });
}

void Endpoint::deliver(Message msg) {
  if (fault_) {
    if (std::optional<DeliveryFault> f = fault_(msg)) {
      if (f->drop) {
        ++deliveries_dropped_;
        return;
      }
      if (f->extra_delay > 0.0) {
        ++deliveries_delayed_;
        // Deposit directly after the hold — the hook must not be consulted
        // twice for the same message.
        sim_.schedule(f->extra_delay, [this, m = std::move(msg)]() mutable {
          deposit(std::move(m));
        });
        return;
      }
    }
  }
  deposit(std::move(msg));
}

void Endpoint::deposit(Message msg) {
  msg.delivered_at = sim_.now();
  bytes_received_ += msg.wire_size();
  inbox_.push(std::move(msg));
}

Channel::Channel(Link& link)
    : a_(new Endpoint(link.simulator(), link.forward(), link.latency())),
      b_(new Endpoint(link.simulator(), link.backward(), link.latency())) {
  a_->peer_ = b_.get();
  b_->peer_ = a_.get();
}

}  // namespace avf::sim
