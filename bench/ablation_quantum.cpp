// Ablation: quantized-enforcement quantum size vs emulation accuracy.
// The paper's sandbox flips priorities "every few milliseconds"; this sweep
// shows how enforcement granularity trades event overhead against fidelity
// of the average-share guarantee (DESIGN.md §6).
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/host.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

using namespace avf;

constexpr double kSpeed = 450e6;
constexpr double kWork = kSpeed * 5.0;

struct Result {
  double measured;
  std::uint64_t events;
};

Result run(double share, double quantum) {
  sim::Simulator sim;
  sim::Host host(sim, "testbed", kSpeed);
  sandbox::Sandbox::Options opts;
  opts.cpu_share = share;
  opts.cpu_enforcement = sandbox::CpuEnforcement::kQuantized;
  opts.quantum = quantum;
  sandbox::Sandbox box(host, "toy", opts);
  double done = -1.0;
  auto toy = [&]() -> sim::Task<> {
    co_await box.compute(kWork);
    done = sim.now();
  };
  sim.spawn(toy());
  sim.run();
  return {done, sim.events_processed()};
}

}  // namespace

int main() {
  bench::figure_header("Ablation: enforcement quantum",
                       "quantized sandbox accuracy vs quantum size "
                       "(share 40%, 5 s of work)");
  double expected = 5.0 / 0.4;
  util::TextTable table(
      {"quantum (ms)", "measured (s)", "error %", "sim events"});
  for (double q : {0.001, 0.005, 0.010, 0.050, 0.200}) {
    Result r = run(0.4, q);
    table.add_row({util::TextTable::num(q * 1e3, 0),
                   util::TextTable::num(r.measured, 4),
                   util::TextTable::num(
                       100.0 * std::abs(r.measured - expected) / expected, 3),
                   util::TextTable::num(static_cast<double>(r.events), 0)});
  }
  table.print(std::cout);
  bench::note(util::format(
      "\nexpected time at exact 40% share: {:.3f} s.  Smaller quanta track "
      "the share more tightly at the cost of proportionally more "
      "enforcement events — the paper's \"every few milliseconds\" is the "
      "sweet spot.", expected));
  return 0;
}
