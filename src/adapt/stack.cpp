#include "adapt/stack.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace avf::adapt {

namespace {

/// The initial selection the steering agent starts from.
tunable::ConfigPoint initial_decision(const ResourceScheduler& scheduler,
                                      const std::vector<double>& resources) {
  std::optional<Decision> decision = scheduler.select(resources);
  if (!decision) {
    throw std::runtime_error("adaptation stack: empty performance database");
  }
  return std::move(decision->config);
}

}  // namespace

AdaptationStack::AdaptationStack(sim::Simulator& sim,
                                 const tunable::AppSpec& spec,
                                 const perfdb::PerfDatabase& db,
                                 PreferenceList preferences,
                                 const std::vector<double>& initial_resources,
                                 const Options& options)
    : scheduler(db, std::move(preferences), options.scheduler),
      monitor(sim, spec.resource_axes(), options.monitor),
      steering(spec, initial_decision(scheduler, initial_resources)),
      controller(sim, scheduler, monitor, steering, options.controller),
      initial_config(controller.configure(initial_resources)) {
  controller.start();
}

}  // namespace avf::adapt
