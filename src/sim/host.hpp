// A simulated host: a named machine with a CPU (fluid resource in ops/s).
// Host speeds are quoted in ops/s; the repro convention is
// "a 450 MHz-class Pentium II executes 450e6 ops/s", so the paper's machines
// map to speeds 450e6 / 333e6 / 200e6 (see DESIGN.md §5).
#pragma once

#include <string>

#include "sim/fluid_resource.hpp"
#include "sim/simulator.hpp"

namespace avf::sim {

class Host {
 public:
  Host(Simulator& sim, std::string name, double cpu_ops_per_sec);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  Simulator& simulator() { return sim_; }

  FluidResource& cpu() { return cpu_; }
  const FluidResource& cpu() const { return cpu_; }

  /// Nominal CPU speed (ops/s) — the capacity of the cpu() resource.
  double cpu_speed() const { return cpu_.capacity(); }

 private:
  Simulator& sim_;
  std::string name_;
  FluidResource cpu_;
};

}  // namespace avf::sim
