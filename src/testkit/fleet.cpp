#include "testkit/fleet.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapt/stack.hpp"
#include "perfdb/driver.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tunable/config.hpp"
#include "util/hash.hpp"

namespace avf::testkit {

namespace {

/// A string folds as its length, then its bytes.
void fold_str(util::Fnv1aFold& f, const std::string& s) {
  f.u64(s.size()).bytes(s.data(), s.size());
}

/// One session's complete adaptation stack.  It is built at the session's
/// wave-start event (not at world construction): the initial automatic
/// configuration must see the ground truth *at arrival time*.
struct Session {
  std::unique_ptr<adapt::AdaptationStack> stack;
  std::size_t cpu_axis = 0;
  std::size_t net_axis = 0;
  double end_time = 0.0;
  std::size_t tasks = 0;
  sim::EventHandle observe_event;
};

struct FleetState {
  explicit FleetState(const FleetOptions& options)
      : opt(options),
        net(sim),
        client_host(net.add_host("fleet-clients", options.model.cpu_speed)),
        server_host(net.add_host("fleet-server", options.model.cpu_speed)),
        link(net.connect(client_host, server_host, options.model.nominal_bw,
                         options.model.link_latency)),
        injector({.sim = &sim, .link = &link}, /*seed=*/1),
        db(build_fleet_database(options.model)),
        prefs(fleet_preferences()),
        sessions(static_cast<std::size_t>(options.sessions)) {}

  const FleetOptions& opt;
  sim::Simulator sim;
  sim::Network net;
  sim::Host& client_host;
  sim::Host& server_host;
  sim::Link& link;
  FaultInjector injector;
  const perfdb::PerfDatabase db;
  const adapt::PreferenceList prefs;
  std::vector<Session> sessions;
};

/// Task boundary: observe the shared ground truth, count the task, and give
/// the steering agent its transition point.  Reschedules itself until the
/// session's monitoring lifetime ends.
void observe_tick(FleetState& st, std::size_t idx) {
  Session& s = st.sessions[idx];
  s.stack->monitor.observe(s.cpu_axis, st.injector.true_cpu_share());
  s.stack->monitor.observe(s.net_axis, st.injector.true_bandwidth());
  ++s.tasks;
  s.stack->steering.apply_pending();
  const double next = st.sim.now() + st.opt.observe_interval;
  if (next <= s.end_time) {
    s.observe_event = st.sim.schedule(st.opt.observe_interval,
                                      [&st, idx] { observe_tick(st, idx); });
  } else {
    s.observe_event = st.sim.schedule_at(s.end_time, [&st, idx] {
      st.sessions[idx].stack->steering.apply_pending();
      st.sessions[idx].stack->controller.stop();
    });
  }
}

void start_session(FleetState& st, std::size_t idx) {
  Session& s = st.sessions[idx];

  // The spec/preference/database triple is identical for every session;
  // lint it once, at the first arrival.
  adapt::AdaptationController::Options controller = st.opt.controller;
  controller.validate_spec = controller.validate_spec && idx == 0;
  s.stack = std::make_unique<adapt::AdaptationStack>(
      st.sim, fleet_app_spec(), st.db, st.prefs,
      std::vector<double>{st.injector.true_cpu_share(),
                          st.injector.true_bandwidth()},
      adapt::AdaptationStack::Options{
          .monitor = st.opt.monitor,
          .scheduler = {.lookup = perfdb::Lookup::kInterpolate,
                        .switch_hysteresis = st.opt.switch_hysteresis,
                        .decision_cache = st.opt.decision_cache},
          .controller = controller});
  s.cpu_axis = s.stack->monitor.axis_id("cpu_share");
  s.net_axis = s.stack->monitor.axis_id("net_bps");

  s.end_time = st.sim.now() + st.opt.session_duration;
  observe_tick(st, idx);
}

}  // namespace

const tunable::AppSpec& fleet_app_spec() {
  static const tunable::AppSpec spec = [] {
    tunable::AppSpec s("testkit-fleet");
    s.space().add_parameter("q", {1, 2, 3, 4, 5, 6, 7, 8});  // payload quality
    s.space().add_parameter("c", {0, 1, 2});                 // codec ladder
    s.space().add_parameter("r", {0, 1, 2, 3});              // refine passes
    s.metrics().add("response", tunable::Direction::kLowerBetter);
    s.metrics().add("quality", tunable::Direction::kHigherBetter);
    s.add_resource_axis("cpu_share");
    s.add_resource_axis("net_bps");
    s.add_task(tunable::TaskSpec{
        .name = "session",
        .params = {"q", "c", "r"},
        .resources = {"client.CPU", "client.network"},
        .metrics = {"response", "quality"},
        .guard = nullptr,
    });
    s.add_transition(tunable::TransitionSpec{
        .name = "retune",
        .guard = nullptr,
        .handler = nullptr,
    });
    return s;
  }();
  return spec;
}

double FleetModel::ops(const tunable::ConfigPoint& config) const {
  // Quality costs proportional CPU, codecs multiply it (lzw 1.75x, bwt
  // 2.75x), and each refinement pass adds half a base pass.  Sized so the
  // top of the space misses the interactive bound even on an idle host:
  // selection stays non-trivial at every resource point.
  const int c = config.get("c");
  const double codec_cost = c == 2 ? 2.75 : c == 1 ? 1.75 : 1.0;
  const double refine = 1.0 + 0.5 * static_cast<double>(config.get("r"));
  return static_cast<double>(config.get("q")) * 9e6 * codec_cost * refine;
}

double FleetModel::reply_bytes(const tunable::ConfigPoint& config) const {
  // lzw halves the payload, bwt compresses harder; refinement passes ship
  // extra detail coefficients.
  const int c = config.get("c");
  const double ratio = c == 2 ? 2.8 : c == 1 ? 2.0 : 1.0;
  const double refine = 1.0 + 0.25 * static_cast<double>(config.get("r"));
  return static_cast<double>(config.get("q")) * 24e3 / ratio * refine;
}

double FleetModel::response(const tunable::ConfigPoint& config,
                            double cpu_share, double net_bps) const {
  const double request_bytes =
      static_cast<double>(12 + sim::kMessageHeaderBytes);
  return ops(config) / (cpu_speed * cpu_share) + server_ops / cpu_speed +
         request_bytes / net_bps + reply_bytes(config) / net_bps +
         2.0 * link_latency;
}

double FleetModel::quality(const tunable::ConfigPoint& config) const {
  return static_cast<double>(config.get("q")) *
         (1.0 + 0.25 * static_cast<double>(config.get("r")));
}

perfdb::PerfDatabase build_fleet_database(const FleetModel& model) {
  const perfdb::ProfilingDriver driver(
      [&model](const tunable::ConfigPoint& config,
               const perfdb::ResourcePoint& at) {
        tunable::QosVector q;
        q.set("response", model.response(config, at[0], at[1]));
        q.set("quality", model.quality(config));
        return q;
      });
  return driver.profile(fleet_app_spec(), {{0.1, 0.2, 0.4, 0.7, 1.0},
                                           {50e3, 100e3, 250e3, 500e3, 1e6}});
}

adapt::PreferenceList fleet_preferences() {
  adapt::UserPreference interactive;
  interactive.name = "interactive";
  interactive.constraints = {{.metric = "response", .max = 0.7}};
  interactive.objective_metric = "quality";
  interactive.maximize = true;

  adapt::UserPreference fallback;
  fallback.name = "fastest";
  fallback.objective_metric = "response";
  fallback.maximize = false;
  return {interactive, fallback};
}

FaultSchedule fleet_churn_schedule(const FleetModel& model, double duration) {
  FaultSchedule schedule;
  // An early square-wave flap (bandwidth alternating nominal/8 <-> nominal
  // every 0.45 s) keeps every live session's network estimate swinging
  // through the adaptation threshold...
  schedule.faults.push_back(Fault{.kind = FaultKind::kLinkFlap,
                                  .at = 1.0,
                                  .until = 0.4 * duration,
                                  .value = model.nominal_bw / 8.0,
                                  .period = 0.45});
  // ...and a later sustained collapse forces one more fleet-wide
  // reconfiguration plus the recovery upshift when it clears.
  schedule.faults.push_back(Fault{.kind = FaultKind::kLinkBandwidth,
                                  .at = 0.55 * duration,
                                  .until = 0.8 * duration,
                                  .value = model.nominal_bw / 4.0});
  return schedule;
}

FleetResult run_fleet(const FleetOptions& options) {
  if (options.sessions <= 0 || options.waves <= 0) {
    throw std::invalid_argument("fleet: sessions and waves must be positive");
  }
  FleetState st(options);

  // Deal sessions into contiguous wave groups and schedule each arrival.
  const std::size_t n = st.sessions.size();
  const std::size_t per_wave =
      (n + static_cast<std::size_t>(options.waves) - 1) /
      static_cast<std::size_t>(options.waves);
  for (std::size_t i = 0; i < n; ++i) {
    const double start =
        static_cast<double>(i / per_wave) * options.wave_interval;
    st.sim.schedule_at(start, [&st, i] { start_session(st, i); });
  }
  st.injector.arm(fleet_churn_schedule(options.model, options.duration));
  st.sim.run();

  FleetResult result;
  result.sessions = n;
  util::Fnv1aFold h;
  for (const Session& s : st.sessions) {
    result.tasks += s.tasks;
    result.checks += s.stack->controller.checks();
    result.ticks_skipped += s.stack->controller.ticks_skipped();
    result.triggers += s.stack->monitor.triggers();
    const auto& events = s.stack->controller.adaptations();
    result.adaptations += events.size();

    fold_str(h, s.stack->initial_config.key());
    h.u64(events.size());
    for (const auto& e : events) {
      h.f64(e.time);
      fold_str(h, e.from.key());
      fold_str(h, e.to.key());
      h.u64(e.preference_index).u64(e.estimates.size());
      for (double v : e.estimates) h.f64(v);
    }
    fold_str(h, s.stack->steering.active().key());
    h.u64(s.tasks);
  }
  result.decision_fingerprint = h.h;
  if (options.decision_cache) result.cache = options.decision_cache->stats();
  result.total_time = st.sim.now();
  return result;
}

}  // namespace avf::testkit
