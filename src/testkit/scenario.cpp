#include "testkit/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "adapt/stack.hpp"
#include "perfdb/driver.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace avf::testkit {

namespace {

// Request/reply protocol message kinds.  kTimeout never crosses the wire:
// the client's retry timer posts it to its own inbox via Endpoint::inject.
constexpr int kRequest = 1;
constexpr int kReply = 2;
constexpr int kTimeout = 3;
constexpr int kShutdown = 9;

// Payload layout (12 bytes): task_id, attempt, want (reply wire bytes).
sim::Message make_request(std::uint32_t task_id, std::uint32_t attempt,
                          std::uint32_t want) {
  sim::Message m;
  m.kind = kRequest;
  util::put_u32(m.payload, task_id);
  util::put_u32(m.payload, attempt);
  util::put_u32(m.payload, want);
  return m;
}

/// Everything the scenario processes share; lives on run_scenario's frame
/// for the duration of Simulator::run.
struct Ctx {
  sim::Simulator& sim;
  const ScenarioOptions& opt;
  sandbox::Sandbox& client_box;
  sandbox::Sandbox& server_box;
  sim::Endpoint& client_ep;
  sim::Endpoint& server_ep;
  adapt::AdaptationStack& stack;
  FaultInjector& injector;
  TransitionPointChecker& transitions;
  MonitorAccuracyChecker& accuracy;
  TraceRecorder& trace;
  std::size_t tasks = 0;
  std::size_t retries = 0;
  std::size_t adapt_seen = 0;  // adaptation events already traced
};

sim::EventHandle arm_timeout(Ctx& ctx, std::uint32_t task_id,
                             std::uint32_t attempt, double after) {
  return ctx.sim.schedule(after, [&ep = ctx.client_ep, task_id, attempt] {
    sim::Message m;
    m.kind = kTimeout;
    util::put_u32(m.payload, task_id);
    util::put_u32(m.payload, attempt);
    ep.inject(std::move(m));
  });
}

/// The adaptive client: per task, compute under the active configuration
/// (observing CPU availability), request a reply payload from the server
/// (observing network availability from the measured transfer), then apply
/// any staged reconfiguration — the task boundary of the paper's steering
/// model.  Retries with exponential backoff survive dropped replies; stale
/// replies and stale timeout markers are discarded by (task_id, attempt).
sim::Task<> client_proc(Ctx& ctx) {
  sim::Simulator& sim = ctx.sim;
  const AppModel& model = ctx.opt.model;
  // Axis ids resolved once; the compute chunks observe per chunk and must
  // not pay the name lookup per sample.
  const std::size_t cpu_axis = ctx.stack.monitor.axis_id("cpu_share");
  const std::size_t net_axis = ctx.stack.monitor.axis_id("net_bps");
  std::uint32_t task_id = 0;
  while (sim.now() < ctx.opt.duration) {
    ++task_id;
    const tunable::ConfigPoint cfg = ctx.stack.steering.active();
    const double ops = model.ops(cfg);
    const auto want = static_cast<std::uint32_t>(model.reply_bytes(cfg));

    // Compute in chunks, observing CPU availability after each — the
    // instrumented-application pattern (paper §6.1).  Chunking keeps the
    // sample cadence fine enough that a fault shorter than one task still
    // lands several unblended samples in the monitor's window.
    constexpr int kComputeChunks = 4;
    for (int chunk = 0; chunk < kComputeChunks; ++chunk) {
      const sim::SimTime t0 = sim.now();
      co_await ctx.client_box.compute(ops / kComputeChunks);
      const sim::SimTime t1 = sim.now();
      if (t1 > t0) {
        ctx.stack.monitor.observe(
            cpu_axis,
            ctx.injector.perturb(
                "cpu_share",
                ops / kComputeChunks / (model.cpu_speed * (t1 - t0))));
      }
    }

    std::uint32_t attempt = 0;
    double timeout_s = ctx.opt.retry_timeout;
    co_await ctx.client_box.send(ctx.client_ep,
                                 make_request(task_id, attempt, want));
    sim::EventHandle timeout = arm_timeout(ctx, task_id, attempt, timeout_s);
    for (;;) {
      sim::Message msg = co_await ctx.client_ep.recv();
      // A reply echoes (task_id, attempt, want); a timeout marker carries
      // (task_id, attempt).
      util::ByteReader in(msg.payload, "testkit message");
      const std::uint32_t msg_task = in.u32();
      if (msg.kind == kReply && msg_task == task_id) {
        // Any attempt's reply completes the task.
        timeout.cancel();
        const double span = msg.delivered_at - msg.sent_at - model.link_latency;
        if (span > 0.0) {
          ctx.stack.monitor.observe(
              net_axis,
              ctx.injector.perturb(
                  "net_bps", static_cast<double>(msg.wire_size()) / span));
        }
        break;
      }
      if (msg.kind == kTimeout && msg_task == task_id &&
          in.u32() == attempt) {
        ++ctx.retries;
        ++attempt;
        timeout_s *= 2.0;
        co_await ctx.client_box.send(ctx.client_ep,
                                     make_request(task_id, attempt, want));
        timeout = arm_timeout(ctx, task_id, attempt, timeout_s);
        continue;
      }
      // Stale reply or stale timeout marker from an earlier attempt: ignore.
    }
    ++ctx.tasks;
    ctx.trace.record(sim.now(), "task",
                     util::format("id={} cfg={} attempts={}", task_id,
                                  cfg.key(), attempt + 1));
    ctx.transitions.enter_boundary();
    ctx.stack.steering.apply_pending();
    ctx.transitions.leave_boundary();
  }
  sim::Message bye;
  bye.kind = kShutdown;
  co_await ctx.client_box.send(ctx.client_ep, std::move(bye));
  ctx.stack.controller.stop();
}

sim::Task<> server_proc(Ctx& ctx) {
  for (;;) {
    sim::Message msg = co_await ctx.server_ep.recv();
    if (msg.kind == kShutdown) co_return;
    if (msg.kind != kRequest) {
      throw std::runtime_error(
          util::format("testkit server: unexpected message kind {}", msg.kind));
    }
    co_await ctx.server_box.compute(ctx.opt.model.server_ops);
    sim::Message reply;
    reply.kind = kReply;
    reply.payload = msg.payload;  // echo (task_id, attempt, want)
    util::ByteReader in(msg.payload, "testkit message");
    in.take(8);  // task_id, attempt
    reply.wire_size_override = in.u32();
    co_await ctx.server_box.send(ctx.server_ep, std::move(reply));
  }
}

/// Periodic harness probe: one trace line per check interval (estimates and
/// injected ground truth), newly recorded adaptation decisions, and the
/// monitor-accuracy invariant.
sim::Task<> probe_proc(Ctx& ctx) {
  const double interval = ctx.opt.controller.check_interval;
  while (ctx.sim.now() < ctx.opt.duration) {
    co_await ctx.sim.delay(interval);
    auto fmt_est = [&](const char* axis) {
      auto e = ctx.stack.monitor.estimate(ctx.stack.monitor.axis_id(axis));
      return e ? bits(*e) : std::string("-");
    };
    ctx.trace.record(ctx.sim.now(), "probe",
                     util::format("cpu={} bw={} true_cpu={} true_bw={}",
                                  fmt_est("cpu_share"), fmt_est("net_bps"),
                                  bits(ctx.injector.true_cpu_share()),
                                  bits(ctx.injector.true_bandwidth())));
    const auto& events = ctx.stack.controller.adaptations();
    while (ctx.adapt_seen < events.size()) {
      const auto& e = events[ctx.adapt_seen++];
      ctx.trace.record(e.time, "adapt",
                       util::format("{} -> {} pref={}", e.from.key(),
                                    e.to.key(), e.preference_index));
    }
    if (ctx.opt.check_invariants) ctx.accuracy.probe();
  }
}

}  // namespace

const tunable::AppSpec& testkit_app_spec() {
  static const tunable::AppSpec spec = [] {
    tunable::AppSpec s("testkit-pipeline");
    s.space().add_parameter("q", {1, 2, 3, 4});  // payload quality level
    s.space().add_parameter("c", {0, 1, 2});     // codec: none/lzw/bwt
    s.metrics().add("response", tunable::Direction::kLowerBetter);
    s.metrics().add("quality", tunable::Direction::kHigherBetter);
    s.add_resource_axis("cpu_share");
    s.add_resource_axis("net_bps");
    s.add_task(tunable::TaskSpec{
        .name = "pipeline",
        .params = {"q", "c"},
        .resources = {"client.CPU", "client.network"},
        .metrics = {"response", "quality"},
        .guard = nullptr,
    });
    s.add_transition(tunable::TransitionSpec{
        .name = "renegotiate-payload",
        .guard = nullptr,
        .handler = nullptr,
    });
    return s;
  }();
  return spec;
}

double AppModel::ops(const tunable::ConfigPoint& config) const {
  // Higher quality costs proportional client CPU; codecs cost extra compute
  // (lzw 1.75x, bwt 2.75x — the block sort dominates).  Sized so that CPU
  // faults (share <= 0.5) push q=4 past the interactive response bound and
  // force a quality downshift, while q=1 stays viable at the worst injected
  // share (0.15).
  const int c = config.get("c");
  const double codec_cost = c == 2 ? 2.75 : c == 1 ? 1.75 : 1.0;
  return static_cast<double>(config.get("q")) * 36e6 * codec_cost;
}

double AppModel::reply_bytes(const tunable::ConfigPoint& config) const {
  // lzw halves the payload; bwt+mtf compresses markedly harder.
  const int c = config.get("c");
  const double ratio = c == 2 ? 2.8 : c == 1 ? 2.0 : 1.0;
  return static_cast<double>(config.get("q")) * 24e3 / ratio;
}

double AppModel::response(const tunable::ConfigPoint& config, double cpu_share,
                          double net_bps) const {
  // Client compute + request wire (12B payload + framing) + server compute
  // + reply wire + two propagation delays: exactly the simulated pipeline.
  const double request_bytes =
      static_cast<double>(12 + sim::kMessageHeaderBytes);
  return ops(config) / (cpu_speed * cpu_share) + server_ops / cpu_speed +
         request_bytes / net_bps + reply_bytes(config) / net_bps +
         2.0 * link_latency;
}

perfdb::PerfDatabase build_testkit_database(const AppModel& model) {
  const perfdb::ProfilingDriver driver(
      [&model](const tunable::ConfigPoint& config,
               const perfdb::ResourcePoint& at) {
        tunable::QosVector q;
        q.set("response", model.response(config, at[0], at[1]));
        q.set("quality", static_cast<double>(config.get("q")));
        return q;
      });
  return driver.profile(testkit_app_spec(), {{0.1, 0.2, 0.4, 0.7, 1.0},
                                             {50e3, 100e3, 250e3, 500e3, 1e6}});
}

adapt::PreferenceList testkit_preferences(int template_id) {
  adapt::UserPreference fast;
  fast.name = "interactive";
  fast.constraints = {{.metric = "response", .max = 0.7}};
  fast.objective_metric = "quality";
  fast.maximize = true;

  adapt::UserPreference fallback;
  fallback.objective_metric = "response";
  fallback.maximize = false;
  if (template_id == 0) {
    // Unconstrained fallback: some configuration always qualifies, so the
    // scheduler never needs its best-effort branch.
    fallback.name = "fastest";
  } else {
    // Constrained fallback: a deep enough fault leaves nothing satisfiable
    // and forces the scheduler's best-effort fall-through.
    fallback.name = "tolerable";
    fallback.constraints = {{.metric = "response", .max = 2.0}};
  }
  return {fast, fallback};
}

ScheduleLimits limits_for(const ScenarioOptions& options) {
  ScheduleLimits limits;
  limits.earliest = 0.5;
  // Leave the re-convergence grace period (one monitor window plus K check
  // intervals) and a safety margin of quiet time before the run ends.
  const double grace =
      options.monitor.window + static_cast<double>(options.reconverge_checks) *
                                   options.controller.check_interval;
  limits.latest_clear = options.duration - grace - 0.5;
  limits.nominal_bandwidth = options.model.nominal_bw;
  return limits;
}

ScenarioResult run_scenario(const FaultSchedule& schedule,
                            const ScenarioOptions& options) {
  const AppModel& model = options.model;
  ScenarioResult result;
  InvariantLog log;

  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& client_host = net.add_host("client", model.cpu_speed);
  sim::Host& server_host = net.add_host("server", model.cpu_speed);
  sim::Link& link =
      net.connect(client_host, server_host, model.nominal_bw,
                  model.link_latency);
  sim::Channel& channel = net.open_channel(link);

  sandbox::Sandbox client_box(client_host, "tk-client", {});
  sandbox::Sandbox server_box(server_host, "tk-server", {});
  // Competing load for kCpuSteal lives on the client's host; it consumes
  // CPU only while a steal fault drives its busy loop.
  sandbox::Sandbox rival_box(client_host, "tk-rival", {});
  client_box.attach_endpoint(channel.a());
  server_box.attach_endpoint(channel.b());

  FaultInjector injector({.sim = &sim,
                          .link = &link,
                          .victim = &client_box,
                          .competitor = &rival_box,
                          .inbound = &channel.a()},
                         options.injector_seed, &result.trace);

  const perfdb::PerfDatabase db = build_testkit_database(model);
  const adapt::PreferenceList prefs =
      testkit_preferences(options.preference_template);
  adapt::AdaptationStack stack(
      sim, testkit_app_spec(), db, prefs,
      {injector.true_cpu_share(), injector.true_bandwidth()},
      {.monitor = options.monitor,
       .scheduler = {.lookup = perfdb::Lookup::kInterpolate,
                     .switch_hysteresis = options.switch_hysteresis},
       .controller = options.controller});

  // Constructed after the initial configure: only run-time reconfigurations
  // must respect task boundaries.
  TransitionPointChecker transitions(sim, stack.steering, log, &result.trace);
  MonitorAccuracyChecker accuracy(sim, stack.monitor, injector, log,
                                  {.tolerance = options.accuracy_tolerance,
                                   .window = options.monitor.window,
                                   .settle = options.accuracy_settle});

  injector.arm(schedule);
  result.trace.record(0.0, "begin",
                      util::format("cfg={} seed={}",
                                   stack.initial_config.key(),
                                   options.injector_seed));

  Ctx ctx{sim,         options,   client_box, server_box,  channel.a(),
          channel.b(), stack,     injector,   transitions, accuracy,
          result.trace};
  sim.spawn(server_proc(ctx));
  sim.spawn(client_proc(ctx));
  sim.spawn(probe_proc(ctx));
  sim.run();

  // Adaptations decided after the probe's final drain.
  const auto& events = stack.controller.adaptations();
  while (ctx.adapt_seen < events.size()) {
    const auto& e = events[ctx.adapt_seen++];
    result.trace.record(e.time, "adapt",
                        util::format("{} -> {} pref={}", e.from.key(),
                                     e.to.key(), e.preference_index));
  }

  if (options.check_invariants) {
    check_adaptation_events(events, db, prefs, log);
    check_reconvergence(sim.now(), injector, stack.scheduler, stack.steering,
                        events, options.monitor.window,
                        options.controller.check_interval,
                        options.reconverge_checks, log);
  }

  result.violations = log.violations();
  result.tasks = ctx.tasks;
  result.retries = ctx.retries;
  result.checks = stack.controller.checks();
  result.accuracy_probes = accuracy.checked();
  result.adaptations = events;
  result.initial_config = stack.initial_config;
  result.final_config = stack.steering.active();
  result.total_time = sim.now();
  result.trace.record(sim.now(), "end",
                      util::format("tasks={} retries={} adaptations={}",
                                   ctx.tasks, ctx.retries, events.size()));
  return result;
}

std::string SoakReport::summary() const {
  std::string out = util::format(
      "soak: {} scenario(s), {} task(s), {} adaptation(s), {} accuracy "
      "probe(s), {} violation(s)\n",
      scenarios, tasks, adaptations, accuracy_probes, violations.size());
  for (const auto& [seed, v] : violations) {
    out += util::format("  seed={} t={:.4f} [{}] {}\n", seed, v.time,
                        v.invariant, v.detail);
  }
  return out;
}

SoakReport run_soak(std::uint64_t base_seed, int count,
                    const ScenarioOptions& base_options) {
  util::SplitMix64 seeder(base_seed);
  SoakReport report;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = seeder.next();
    report.seeds.push_back(seed);

    ScenarioOptions opt = base_options;
    opt.injector_seed = seed;
    opt.preference_template = static_cast<int>((seed >> 8) % 2);
    const FaultSchedule schedule = random_schedule(seed, limits_for(opt));

    ScenarioResult result = run_scenario(schedule, opt);
    ++report.scenarios;
    report.tasks += result.tasks;
    report.adaptations += result.adaptations.size();
    report.accuracy_probes += result.accuracy_probes;
    for (const Violation& v : result.violations) {
      report.violations.emplace_back(seed, v);
    }
  }
  return report;
}

}  // namespace avf::testkit
