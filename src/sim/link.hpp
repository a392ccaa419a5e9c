// Network link and endpoint messaging.
//
// A Link is full-duplex: each direction is an independent FluidResource
// (bytes/s) plus a fixed propagation latency.  Messages are injected under
// the sender's ShareSlot — which is how the sandbox throttles a process's
// bandwidth without touching the link itself — then delivered to the peer
// endpoint's mailbox one latency later.  Delivery preserves send order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fluid_resource.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/blob.hpp"

namespace avf::sim {

/// Fixed per-message framing overhead charged on the wire.
constexpr std::size_t kMessageHeaderBytes = 64;

struct Message {
  int kind = 0;
  /// Inline bytes (small headers and control fields).
  std::vector<std::uint8_t> payload;
  /// Optional bulk bytes after `payload`, shared rather than copied: a
  /// sender hands over an immutable Blob it may also keep (e.g. a stored
  /// tile-region payload), and the receiver reads the same instance.
  std::shared_ptr<const util::Blob> body;
  SimTime sent_at = 0.0;       // stamped at injection start
  SimTime delivered_at = 0.0;  // stamped at mailbox deposit
  /// When non-zero, the link charges this many bytes instead of
  /// payload+body+header.  Lets a sender ship convenience bytes (e.g. an
  /// uncompressed payload whose compressed size is known from a cache)
  /// while the network behaves as if the real wire bytes crossed it.
  std::size_t wire_size_override = 0;

  std::size_t wire_size() const {
    if (wire_size_override != 0) return wire_size_override;
    return payload.size() + (body ? body->size() : 0) + kMessageHeaderBytes;
  }
};

class Link {
 public:
  Link(Simulator& sim, std::string name, double bandwidth_bps,
       double latency_s);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  const std::string& name() const { return name_; }
  Simulator& simulator() { return sim_; }
  double latency() const { return latency_; }
  double bandwidth() const { return forward_.capacity(); }

  /// Reconfigure raw link bandwidth (both directions).
  void set_bandwidth(double bps);

  FluidResource& forward() { return forward_; }
  FluidResource& backward() { return backward_; }

 private:
  Simulator& sim_;
  std::string name_;
  double latency_;
  FluidResource forward_;
  FluidResource backward_;
};

class Channel;

/// Verdict of a delivery-fault hook for one inbound message: drop it, or
/// hold it for `extra_delay` seconds before the mailbox deposit.  Messages
/// held for different delays overtake each other — that is how the testkit
/// produces reordered deliveries without a separate mechanism.
struct DeliveryFault {
  bool drop = false;
  SimTime extra_delay = 0.0;
};

/// One end of a channel.  Not movable once handed out: processes keep
/// references across suspension points.
class Endpoint {
 public:
  /// Inbound perturbation hook (fault injection).  Consulted when a message
  /// arrives at this endpoint after wire propagation; nullopt = deliver
  /// normally.  Pass nullptr to clear.
  using DeliveryFaultFn =
      std::function<std::optional<DeliveryFault>(const Message&)>;
  void set_delivery_fault(DeliveryFaultFn fn) { fault_ = std::move(fn); }
  /// Awaitable coroutine: inject `msg` into the link (consuming bandwidth
  /// under this endpoint's share slot) and schedule delivery at the peer.
  /// Completes when the last byte has been injected.
  Task<> send(Message msg);

  /// Awaitable: receive the next message.
  auto recv() { return inbox_.recv(); }
  std::optional<Message> try_recv() { return inbox_.try_recv(); }
  /// Messages physically queued, including ones reserved for coroutines
  /// already blocked in recv() — see Mailbox::size().
  std::size_t pending() const { return inbox_.size(); }
  /// Messages a fresh try_recv()/recv() could claim right now (pending
  /// minus reserved).
  std::size_t available() const { return inbox_.available(); }

  /// The slot the sandbox adjusts to throttle this endpoint's bandwidth.
  const ShareSlotPtr& share_slot() const { return slot_; }

  /// The link direction this endpoint injects into.
  FluidResource& out() { return *out_; }

  OwnerId owner() const { return owner_; }
  void set_owner(OwnerId owner) { owner_ = owner; }

  /// Total payload+framing bytes this endpoint has injected / received.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

  /// Deposit `msg` directly into this endpoint's inbox, bypassing the wire
  /// (no bandwidth consumed, no latency, no delivery-fault hook).  Testkit
  /// hook: lets harness code post local control messages (e.g. timeout
  /// markers) to a process blocked in recv().
  void inject(Message msg) { deposit(std::move(msg)); }

  /// Messages consumed / held by the delivery-fault hook so far.
  std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }
  std::uint64_t deliveries_delayed() const { return deliveries_delayed_; }

 private:
  friend class Channel;
  Endpoint(Simulator& sim, FluidResource& out, double latency)
      : sim_(sim), out_(&out), latency_(latency), inbox_(sim),
        slot_(make_share_slot()) {}

  void deliver(Message msg);
  void deposit(Message msg);

  Simulator& sim_;
  FluidResource* out_;
  Endpoint* peer_ = nullptr;
  double latency_;
  Mailbox<Message> inbox_;
  ShareSlotPtr slot_;
  OwnerId owner_ = kNoOwner;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  DeliveryFaultFn fault_;
  std::uint64_t deliveries_dropped_ = 0;
  std::uint64_t deliveries_delayed_ = 0;
};

/// A bidirectional message channel across one link.
class Channel {
 public:
  explicit Channel(Link& link);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Endpoint on the "forward-sending" side (e.g. the client).
  Endpoint& a() { return *a_; }
  /// Endpoint on the opposite side (e.g. the server).
  Endpoint& b() { return *b_; }

 private:
  std::unique_ptr<Endpoint> a_;
  std::unique_ptr<Endpoint> b_;
};

}  // namespace avf::sim
