#include "sim/host.hpp"

namespace avf::sim {

Host::Host(Simulator& sim, std::string name, double cpu_ops_per_sec)
    : sim_(sim), name_(name), cpu_(sim, name + ".cpu", cpu_ops_per_sec) {}

}  // namespace avf::sim
