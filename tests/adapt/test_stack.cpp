#include "adapt/stack.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace avf::adapt {
namespace {

using perfdb::PerfDatabase;
using tunable::ConfigPoint;
using tunable::Direction;

tunable::AppSpec make_spec() {
  tunable::AppSpec spec("stack-demo");
  spec.space().add_parameter("mode", {0, 1});
  spec.metrics().add("time", Direction::kLowerBetter);
  spec.add_resource_axis("bw");
  return spec;
}

ConfigPoint cfg(int mode) {
  ConfigPoint p;
  p.set("mode", mode);
  return p;
}

PerfDatabase empty_db() {
  tunable::MetricSchema schema;
  schema.add("time", Direction::kLowerBetter);
  return PerfDatabase({"bw"}, schema);
}

/// mode 0 wins at high bandwidth, mode 1 at low.
PerfDatabase make_db() {
  PerfDatabase db = empty_db();
  auto q = [](double time) {
    tunable::QosVector out;
    out.set("time", time);
    return out;
  };
  db.insert(cfg(0), {100.0}, q(50.0));
  db.insert(cfg(0), {1000.0}, q(5.0));
  db.insert(cfg(1), {100.0}, q(20.0));
  db.insert(cfg(1), {1000.0}, q(15.0));
  return db;
}

/// Routes log lines into a string for the lifetime of the capture.
class LogCapture {
 public:
  LogCapture() { util::Logger::instance().set_sink(&out_); }
  ~LogCapture() { util::Logger::instance().set_sink(nullptr); }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

// The controller refers to its sibling members: a stack must never move.
static_assert(!std::is_move_constructible_v<AdaptationStack>);
static_assert(!std::is_copy_assignable_v<AdaptationStack>);

TEST(AdaptationStack, EmptyDatabaseThrowsBeforeAnyController) {
  sim::Simulator sim;
  const tunable::AppSpec spec = make_spec();
  const PerfDatabase db = empty_db();
  LogCapture log;
  EXPECT_THROW(AdaptationStack(sim, spec, db, {minimize("time")}, {1000.0},
                               AdaptationStack::Options{}),
               std::runtime_error);
  // A controller built over an empty database would lint it and warn; a
  // started one would leave its periodic check on the queue.
  EXPECT_EQ(log.str().find("controller"), std::string::npos) << log.str();
  sim.run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(AdaptationStack, BringUpConfiguresAndStarts) {
  sim::Simulator sim;
  const tunable::AppSpec spec = make_spec();
  const PerfDatabase db = make_db();
  AdaptationStack::Options options;
  options.decision_cache = std::make_shared<DecisionCache>();
  AdaptationStack stack(sim, spec, db, {minimize("time")}, {1000.0}, options);

  EXPECT_EQ(stack.initial_config, cfg(0));
  EXPECT_EQ(stack.steering.active(), cfg(0));
  EXPECT_FALSE(stack.steering.has_pending());
  EXPECT_TRUE(stack.controller.running());
  // The cache is attached to the stack's scheduler, and the initial
  // selection plus configure()'s re-selection are one miss and one hit.
  EXPECT_EQ(stack.scheduler.options().decision_cache, options.decision_cache);
  const DecisionCache::Stats stats = options.decision_cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

}  // namespace
}  // namespace avf::adapt
