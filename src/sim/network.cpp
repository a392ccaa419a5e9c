#include "sim/network.hpp"

#include "util/fmt.hpp"
#include <stdexcept>

namespace avf::sim {

Host& Network::add_host(const std::string& name, double cpu_ops_per_sec) {
  auto [it, inserted] = hosts_.try_emplace(
      name, std::make_unique<Host>(sim_, name, cpu_ops_per_sec));
  if (!inserted) {
    throw std::invalid_argument(avf::util::format("duplicate host name: {}", name));
  }
  return *it->second;
}

Link& Network::connect(Host& a, Host& b, double bandwidth_bps,
                       double latency_s) {
  links_.push_back(std::make_unique<Link>(
      sim_, avf::util::format("{}<->{}", a.name(), b.name()), bandwidth_bps,
      latency_s));
  return *links_.back();
}

Channel& Network::open_channel(Link& link) {
  channels_.push_back(std::make_unique<Channel>(link));
  return *channels_.back();
}

}  // namespace avf::sim
