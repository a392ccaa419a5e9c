#include "tunable/app_spec.hpp"

#include <gtest/gtest.h>

namespace avf::tunable {
namespace {

AppSpec make_spec() {
  AppSpec spec("demo");
  spec.space().add_parameter("mode", {0, 1});
  spec.metrics().add("latency", Direction::kLowerBetter);
  spec.add_resource_axis("cpu_share");
  return spec;
}

TEST(AppSpec, BasicDeclarations) {
  AppSpec spec = make_spec();
  EXPECT_EQ(spec.name(), "demo");
  EXPECT_EQ(spec.space().parameter_count(), 1u);
  EXPECT_EQ(spec.resource_axes(),
            (std::vector<std::string>{"cpu_share"}));
  EXPECT_THROW(spec.add_resource_axis("cpu_share"), std::invalid_argument);
}

TEST(AppSpec, TransitionsStored) {
  AppSpec spec = make_spec();
  int fired = 0;
  spec.add_transition(TransitionSpec{
      .name = "t",
      .guard = nullptr,
      .handler = [&](const ConfigPoint&, const ConfigPoint&) { ++fired; }});
  ASSERT_EQ(spec.transitions().size(), 1u);
  ConfigPoint p;
  spec.transitions()[0].handler(p, p);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace avf::tunable
