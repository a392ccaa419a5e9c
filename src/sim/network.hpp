// Network: the container wiring hosts and links into an execution
// environment (the paper's `execution_env` annotation, §4).  Owns all hosts,
// links, and channels so application code deals only in references.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/host.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace avf::sim {

class Network {
 public:
  explicit Network(Simulator& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& simulator() { return sim_; }

  /// Create a host; names must be unique.
  Host& add_host(const std::string& name, double cpu_ops_per_sec);

  /// Create a full-duplex link between two hosts.
  Link& connect(Host& a, Host& b, double bandwidth_bps, double latency_s);

  /// Create a message channel over `link`; the Network keeps it alive.
  Channel& open_channel(Link& link);

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  Simulator& sim_;
  std::unordered_map<std::string, std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace avf::sim
