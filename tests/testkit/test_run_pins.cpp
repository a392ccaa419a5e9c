// Golden run pins for the testkit harnesses: the exact scenario trace digest
// and fleet decision fingerprint, fixed across commits (see
// tests/viz/test_session_pins.cpp for the rationale).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "testkit/fleet.hpp"
#include "testkit/scenario.hpp"

namespace avf::testkit {
namespace {

TEST(RunPins, ScenarioTrace) {
  ScenarioOptions options;
  options.injector_seed = 42;
  const ScenarioResult result =
      run_scenario(random_schedule(42, limits_for(options)), options);
  EXPECT_EQ(result.trace.size(), 67u);
  EXPECT_EQ(result.trace.fingerprint(), 2720876110238985540ull);
  EXPECT_EQ(result.tasks, 20u);
  EXPECT_EQ(result.adaptations.size(), 1u);
}

TEST(RunPins, FleetDecisions) {
  FleetOptions options;
  options.sessions = 24;
  options.waves = 4;
  options.decision_cache = std::make_shared<adapt::DecisionCache>();
  const FleetResult result = run_fleet(options);
  EXPECT_EQ(result.decision_fingerprint, 12360520429043656625ull);
  EXPECT_EQ(result.adaptations, 120u);
  EXPECT_EQ(result.cache.hits, 161u);
  EXPECT_EQ(result.cache.misses, 7u);
  EXPECT_EQ(result.cache.evictions, 0u);
  EXPECT_EQ(result.cache.invalidations, 0u);
}

}  // namespace
}  // namespace avf::testkit
