// Micro-benchmarks: simulator kernel throughput (events/s, coroutine
// switches, cancel-and-reschedule at queue depth, fluid-resource
// reallocation).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using namespace avf::sim;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule(i * 1e-6, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Mailbox<int> ping(sim), pong(sim);
    int rounds = static_cast<int>(state.range(0));
    auto a = [&]() -> Task<> {
      for (int i = 0; i < rounds; ++i) {
        ping.push(i);
        (void)co_await pong.recv();
      }
    };
    auto b = [&]() -> Task<> {
      for (int i = 0; i < rounds; ++i) {
        int v = co_await ping.recv();
        pong.push(v);
      }
    };
    sim.spawn(a());
    sim.spawn(b());
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_CoroutinePingPong)->Arg(10000);

/// N pending events; each firing cancels two others and re-arms them at
/// new times, then re-arms itself — the pattern of a FluidResource rate
/// rescale, which moves other flows' completion events.  The queue stays
/// at N events throughout.
struct RescheduleLoop {
  explicit RescheduleLoop(std::size_t n) : events(n) {
    for (std::size_t i = 0; i < n; ++i) arm(i);
  }

  void arm(std::size_t i) {
    events[i] = sim.schedule(rng.next_double(), [this, i] { fire(i); });
  }

  void fire(std::size_t i) {
    std::size_t n = events.size();
    for (int k = 0; k < 2; ++k) {
      std::size_t j = (i + 1 + rng.next_below(n - 1)) % n;  // never i
      events[j].cancel();
      arm(j);
    }
    arm(i);
  }

  Simulator sim;
  avf::util::SplitMix64 rng{1};
  std::vector<EventHandle> events;
};

void BM_CancelReschedule(benchmark::State& state) {
  RescheduleLoop loop(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(loop.sim.step());
  state.SetItemsProcessed(state.iterations());  // firings
}
BENCHMARK(BM_CancelReschedule)->Arg(1000)->Arg(10000);

void BM_FluidReallocation(benchmark::State& state) {
  // N concurrent consumers with periodic cap changes: stresses the
  // water-filling allocator.
  for (auto _ : state) {
    Simulator sim;
    FluidResource cpu(sim, "cpu", 1e9);
    int n = static_cast<int>(state.range(0));
    std::vector<ShareSlotPtr> slots;
    for (int i = 0; i < n; ++i) {
      slots.push_back(make_share_slot(1.0 / n, 1.0 + i % 3));
    }
    for (int i = 0; i < n; ++i) {
      auto proc = [&, i]() -> Task<> {
        for (int k = 0; k < 10; ++k) {
          co_await cpu.consume(1e7, slots[static_cast<std::size_t>(i)]);
        }
      };
      sim.spawn(proc());
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_FluidReallocation)->Arg(4)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_sim");
}
