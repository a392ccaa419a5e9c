// A second tunable application domain: an adaptive sensor-stream pipeline.
//
// A field gateway forwards sensor batches to an analysis server over a
// flaky uplink.  Tunability:
//   * batch  in {16, 64, 256}  — records per message (amortizes headers and
//     per-message processing, but increases per-batch latency)
//   * filter in {0, 1}         — 0: raw forwarding; 1: on-gateway filtering
//     that costs CPU but shrinks each record from 64 to 20 bytes
//
// Metrics: throughput (records/s, higher better) and batch latency
// (seconds, lower better).  The framework profiles the pipeline in the
// testbed and then keeps throughput up as uplink bandwidth collapses by
// switching to on-gateway filtering and larger batches — the same
// structure as the paper's visualization application, in a completely
// different domain.
//
// Build & run:  ./build/examples/adaptive_pipeline
#include <iostream>

#include "adapt/stack.hpp"
#include "examples/specs.hpp"
#include "perfdb/driver.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/network.hpp"
#include "util/table.hpp"

using namespace avf;

namespace {

constexpr double kGatewaySpeed = 200e6;   // embedded-class CPU
constexpr double kRecordBytes = 64.0;
constexpr double kFilteredBytes = 20.0;
constexpr double kFilterOpsPerRecord = 60e3;
constexpr double kPackOpsPerRecord = 4e3;
constexpr double kPerBatchOps = 1.5e6;

struct PipelineWorld {
  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host& gateway;
  sim::Host& server;
  sim::Link& uplink;
  sim::Channel& channel;
  sandbox::Sandbox box;

  explicit PipelineWorld(double uplink_bps, double cpu_share)
      : gateway(net.add_host("gateway", kGatewaySpeed)),
        server(net.add_host("server", 450e6)),
        uplink(net.connect(gateway, server, uplink_bps, 0.02)),
        channel(net.open_channel(uplink)),
        box(gateway, "pipeline", make_options(cpu_share)) {
    box.attach_endpoint(channel.a());
  }

  static sandbox::Sandbox::Options make_options(double share) {
    sandbox::Sandbox::Options o;
    o.cpu_share = share;
    return o;
  }

  /// Ship `records` sensor records under `config`; returns (records/s,
  /// mean batch latency).
  std::pair<double, double> run(const tunable::ConfigPoint& config,
                                int records,
                                adapt::SteeringAgent* steering = nullptr,
                                adapt::MonitoringAgent* monitor = nullptr,
                                adapt::AdaptationController* controller =
                                    nullptr) {
    double latency_sum = 0.0;
    int batches = 0;
    const std::size_t uplink_axis =
        monitor != nullptr ? monitor->axis_id("uplink_bps") : 0;
    auto body = [&, records]() -> sim::Task<> {
      int sent = 0;
      while (sent < records) {
        tunable::ConfigPoint active =
            steering != nullptr ? steering->active() : config;
        int batch = active.get("batch");
        bool filter = active.get("filter") == 1;
        double t0 = sim.now();
        double ops = kPerBatchOps + kPackOpsPerRecord * batch +
                     (filter ? kFilterOpsPerRecord * batch : 0.0);
        co_await box.compute(ops);
        sim::Message msg;
        msg.kind = 1;
        msg.payload.assign(
            static_cast<std::size_t>(
                batch * (filter ? kFilteredBytes : kRecordBytes)),
            0);
        co_await channel.a().send(std::move(msg));
        double dt = sim.now() - t0;
        latency_sum += dt;
        ++batches;
        sent += batch;
        if (monitor != nullptr) {
          double wire = batch * (filter ? kFilteredBytes : kRecordBytes) +
                        sim::kMessageHeaderBytes;
          monitor->observe(uplink_axis, wire / dt);
        }
        if (steering != nullptr) steering->apply_pending();
      }
      // The periodic adaptation check must stop with the application or
      // the event queue never drains.
      if (controller != nullptr) controller->stop();
    };
    sim.spawn(body());
    double start = sim.now();
    sim.run();
    double elapsed = sim.now() - start;
    return {records / elapsed, latency_sum / batches};
  }
};

}  // namespace

int main() {
  // Spec shared with the avf_lint tool: examples::pipeline_spec().
  tunable::AppSpec spec = examples::pipeline_spec();

  std::cout << "== profiling the pipeline across uplink bandwidths ==\n";
  perfdb::ProfilingDriver driver(
      [](const tunable::ConfigPoint& config,
         const perfdb::ResourcePoint& at) {
        PipelineWorld world(at[0], 1.0);
        auto [throughput, latency] = world.run(config, 2048);
        tunable::QosVector q;
        q.set("throughput", throughput);
        q.set("latency", latency);
        return q;
      });
  perfdb::PerfDatabase db =
      driver.profile(spec, {{4e3, 16e3, 64e3, 256e3, 1e6}});

  util::TextTable profile({"uplink (KB/s)", "best config", "records/s"});
  adapt::ResourceScheduler scheduler(db, examples::pipeline_preferences());
  for (double bw : {4e3, 16e3, 64e3, 256e3, 1e6}) {
    auto d = scheduler.select({bw});
    profile.add_row({util::TextTable::num(bw / 1e3, 0), d->config.key(),
                     util::TextTable::num(d->predicted.get("throughput"),
                                          0)});
  }
  profile.print(std::cout);

  std::cout << "\n== live run: uplink collapses 1 MB/s -> 16 KB/s at t=2s "
               "==\n";
  PipelineWorld world(1e6, 1.0);
  adapt::AdaptationStack stack(world.sim, spec, db,
                               examples::pipeline_preferences(), {1e6}, {});
  world.sim.schedule(2.0, [&] { world.uplink.set_bandwidth(16e3); });

  const tunable::ConfigPoint& initial = stack.initial_config;
  auto [throughput, latency] =
      world.run(initial, 40000, &stack.steering, &stack.monitor,
                &stack.controller);

  std::cout << "initial configuration: " << initial.key() << "\n";
  for (const auto& event : stack.controller.adaptations()) {
    std::cout << "t=" << util::TextTable::num(event.time, 2) << "s: "
              << event.from.key() << " -> " << event.to.key() << "\n";
  }
  std::cout << "overall: " << util::TextTable::num(throughput, 0)
            << " records/s, mean batch latency "
            << util::TextTable::num(latency, 3) << " s\n"
            << "\nSame framework, different application: the gateway "
               "switched to on-device filtering\nand bigger batches when "
               "the uplink collapsed.\n";
  return 0;
}
