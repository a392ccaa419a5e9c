// The virtual execution environment ("testbed") of the paper, §5.1.
//
// A Sandbox wraps one simulated process and constrains its average
// utilization of CPU and network to configured limits — the same contract
// the paper's Win32 API-interception sandbox provides.  Two CPU enforcement
// modes are supported:
//
//  * kFluid     — the cap is applied directly to the process's share slot on
//                 the host CPU; enforcement is exact at every instant.
//  * kQuantized — emulates the paper's mechanism ("dynamically manipulating
//                 application priority every few milliseconds"): a closed
//                 loop compares the process's cumulative service against the
//                 entitled amount each quantum and toggles the process
//                 between full-speed and stalled.  Average utilization
//                 converges to the cap, with the quantum-granularity jitter
//                 visible in the paper's Figure 3.
//
// Network limits are expressed in bytes/s and applied to every endpoint
// attached to the sandbox.  When the host is under-loaded the process receives
// exactly its configured resources (see FluidResource), which is what makes
// the sandbox usable as a *modeling testbed*: running under a cap of s on a
// fast host predicts execution on a machine of relative speed s.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/host.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sandbox {

enum class CpuEnforcement { kFluid, kQuantized };

/// How the network limit is enforced:
///  * kFluid   — the cap is applied to the endpoint's share of the link
///               (exact fluid throttling).
///  * kDelayed — emulates the paper's actual mechanism ("delaying sending
///               and receiving of messages"): sends are gated through a
///               token bucket replenished at the configured rate, so each
///               message waits until its wire size has been earned.  The
///               link itself is left uncapped; the *average* rate converges
///               to the limit while short bursts pass at link speed.
enum class NetEnforcement { kFluid, kDelayed };

class Sandbox {
 public:
  struct Options {
    double cpu_share = 1.0;                        // (0, 1]
    std::optional<double> net_bandwidth_bps;       // nullopt = unlimited
    CpuEnforcement cpu_enforcement = CpuEnforcement::kFluid;
    NetEnforcement net_enforcement = NetEnforcement::kFluid;
    double quantum = 0.005;                        // s, kQuantized only
    double net_burst_window = 0.05;                // s, kDelayed bucket depth
  };

  Sandbox(sim::Host& host, std::string name, const Options& options);
  ~Sandbox();

  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  const std::string& name() const { return name_; }
  sim::Host& host() { return host_; }
  sim::OwnerId owner() const { return owner_; }

  // -- CPU --------------------------------------------------------------
  double cpu_share() const { return cpu_share_; }
  void set_cpu_share(double share);
  CpuEnforcement cpu_enforcement() const { return mode_; }

  /// Awaitable: execute `ops` operations on the host CPU under this
  /// sandbox's limits.  The workhorse call of every sandboxed process:
  ///   co_await box.compute(2.5e6);
  ///
  /// In quantized mode this (re)arms the enforcement loop, which runs only
  /// while the process actually has CPU work in flight — so an idle
  /// application costs no simulation events and the event queue can drain.
  sim::Task<> compute(double ops);

  /// Cumulative ops actually served to this sandbox's process.
  double cpu_served() const { return host_.cpu().served(owner_); }

  // -- Network ----------------------------------------------------------
  /// Bind an endpoint: its traffic is attributed to and throttled by this
  /// sandbox from now on.
  void attach_endpoint(sim::Endpoint& endpoint);
  void set_net_bandwidth(std::optional<double> bps);
  std::optional<double> net_bandwidth() const { return net_bps_; }
  NetEnforcement net_enforcement() const { return net_mode_; }

  /// Awaitable: send `msg` through `endpoint` under this sandbox's network
  /// limit.  In kFluid mode this simply forwards; in kDelayed mode the send
  /// is held until the token bucket has earned the message's wire size —
  /// the paper's "delaying sending of messages" enforcement.  Applications
  /// route their sends through the sandbox (the analog of the paper's API
  /// interception):
  ///   co_await box.send(endpoint, std::move(msg));
  sim::Task<> send(sim::Endpoint& endpoint, sim::Message msg);

 private:
  void apply_cpu_cap();
  void apply_net_caps();
  void apply_net_cap(sim::Endpoint& endpoint);
  void ensure_quantum_running();
  void schedule_quantum();
  void quantum_tick();

  sim::Host& host_;
  std::string name_;
  sim::OwnerId owner_;
  CpuEnforcement mode_;
  double quantum_;
  double cpu_share_;
  std::optional<double> net_bps_;
  sim::ShareSlotPtr cpu_slot_;
  std::vector<sim::Endpoint*> endpoints_;
  NetEnforcement net_mode_;
  // Quantized-mode closed-loop state.
  double entitled_cum_ = 0.0;
  sim::EventHandle quantum_event_;
  // Delayed-mode token bucket.
  double net_burst_window_;
  double tokens_ = 0.0;
  sim::SimTime tokens_updated_ = 0.0;
};

}  // namespace avf::sandbox
