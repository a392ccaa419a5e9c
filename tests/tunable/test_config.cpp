#include "tunable/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace avf::tunable {
namespace {

TEST(ConfigPoint, SetGetAndKey) {
  ConfigPoint p;
  p.set("dR", 80);
  p.set("c", 1);
  p.set("l", 4);
  EXPECT_EQ(p.get("dR"), 80);
  EXPECT_EQ(p.key(), "c=1,dR=80,l=4");  // canonical: sorted by name
  EXPECT_THROW(p.get("missing"), std::out_of_range);
  EXPECT_EQ(p.try_get("missing"), std::nullopt);
}

TEST(ConfigPoint, WithReturnsModifiedCopy) {
  ConfigPoint p;
  p.set("a", 1);
  ConfigPoint q = p.with("a", 2);
  EXPECT_EQ(p.get("a"), 1);
  EXPECT_EQ(q.get("a"), 2);
}

TEST(ConfigPoint, ParseRoundTrips) {
  ConfigPoint p;
  p.set("dR", 320);
  p.set("c", 2);
  EXPECT_EQ(ConfigPoint::parse(p.key()), p);
  EXPECT_THROW(ConfigPoint::parse("noequals"), std::invalid_argument);
  EXPECT_THROW(ConfigPoint::parse("=5"), std::invalid_argument);
}

// Capture the descriptive parse error for a malformed key ("" = no throw).
std::string parse_error(const std::string& key) {
  try {
    ConfigPoint::parse(key);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ConfigPoint, ParseEmptyStringIsEmptyPoint) {
  EXPECT_TRUE(ConfigPoint::parse("").empty());
}

TEST(ConfigPoint, ParseRejectsMissingEquals) {
  std::string err = parse_error("a=1,b2");
  EXPECT_NE(err.find("has no '='"), std::string::npos) << err;
  EXPECT_NE(err.find("a=1,b2"), std::string::npos) << err;  // names the key
}

TEST(ConfigPoint, ParseRejectsEmptyParameterName) {
  EXPECT_NE(parse_error("=5").find("empty parameter name"),
            std::string::npos);
}

TEST(ConfigPoint, ParseRejectsNonNumericValue) {
  std::string err = parse_error("a=xyz");
  EXPECT_NE(err.find("not an integer"), std::string::npos) << err;
  EXPECT_NE(err.find("parameter a"), std::string::npos) << err;
}

TEST(ConfigPoint, ParseRejectsEmptyValue) {
  EXPECT_NE(parse_error("a=").find("not an integer"), std::string::npos);
}

TEST(ConfigPoint, ParseRejectsTrailingCharactersAfterValue) {
  EXPECT_NE(parse_error("a=12junk").find("trailing characters"),
            std::string::npos);
  // A float is integer digits + trailing characters, not a valid value.
  EXPECT_NE(parse_error("a=1.5").find("trailing characters"),
            std::string::npos);
}

TEST(ConfigPoint, ParseRejectsOutOfRangeValue) {
  EXPECT_NE(parse_error("a=99999999999999999999").find("out of range"),
            std::string::npos);
}

TEST(ConfigPoint, ParseRejectsDuplicateParameter) {
  std::string err = parse_error("a=1,a=2");
  EXPECT_NE(err.find("duplicate parameter a"), std::string::npos) << err;
}

TEST(ConfigPoint, ParseRejectsTrailingSeparator) {
  EXPECT_NE(parse_error("a=1,").find("trailing separator"),
            std::string::npos);
}

TEST(ConfigPoint, ParseRejectsEmptyItem) {
  EXPECT_NE(parse_error("a=1,,b=2").find("empty item"), std::string::npos);
}

TEST(ConfigPoint, ParseAcceptsNegativeValues) {
  ConfigPoint p = ConfigPoint::parse("a=-3,b=0");
  EXPECT_EQ(p.get("a"), -3);
  EXPECT_EQ(p.get("b"), 0);
}

TEST(ConfigPoint, Ordering) {
  ConfigPoint a, b;
  a.set("x", 1);
  b.set("x", 2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(ConfigSpace, EnumeratesCartesianProduct) {
  ConfigSpace space;
  space.add_parameter("a", {1, 2});
  space.add_parameter("b", {10, 20, 30});
  auto all = space.enumerate();
  EXPECT_EQ(all.size(), 6u);
  // First point is all-first-values; last is all-last-values.
  EXPECT_EQ(all.front().get("a"), 1);
  EXPECT_EQ(all.front().get("b"), 10);
  EXPECT_EQ(all.back().get("a"), 2);
  EXPECT_EQ(all.back().get("b"), 30);
}

TEST(ConfigSpace, GuardsFilterEnumeration) {
  ConfigSpace space;
  space.add_parameter("a", {1, 2, 3});
  space.add_parameter("b", {1, 2, 3});
  space.add_guard("a <= b",
                  [](const ConfigPoint& p) { return p.get("a") <= p.get("b"); });
  auto all = space.enumerate();
  EXPECT_EQ(all.size(), 6u);  // upper triangle of 3x3
  for (const auto& p : all) EXPECT_LE(p.get("a"), p.get("b"));
}

TEST(ConfigSpace, ValidChecksDomainAndGuards) {
  ConfigSpace space;
  space.add_parameter("a", {1, 2});
  space.add_guard("a != 2", [](const ConfigPoint& p) { return p.get("a") != 2; });
  ConfigPoint ok;
  ok.set("a", 1);
  EXPECT_TRUE(space.valid(ok));
  ConfigPoint guard_fail;
  guard_fail.set("a", 2);
  EXPECT_FALSE(space.valid(guard_fail));
  ConfigPoint out_of_domain;
  out_of_domain.set("a", 5);
  EXPECT_FALSE(space.valid(out_of_domain));
  ConfigPoint missing_param;
  EXPECT_FALSE(space.valid(missing_param));
}

TEST(ConfigSpace, RejectsBadDeclarations) {
  ConfigSpace space;
  EXPECT_THROW(space.add_parameter("a", {}), std::invalid_argument);
  space.add_parameter("a", {1});
  EXPECT_THROW(space.add_parameter("a", {2}), std::invalid_argument);
  EXPECT_THROW(space.parameter("zz"), std::out_of_range);
  EXPECT_EQ(space.parameter("a").values.size(), 1u);
}

TEST(ConfigSpace, EmptySpaceEnumeratesNothing) {
  ConfigSpace space;
  EXPECT_TRUE(space.enumerate().empty());
}

TEST(ConfigSpace, RawSizeIsUnguardedProduct) {
  ConfigSpace space;
  EXPECT_EQ(space.raw_size(), 0u);  // no parameters: empty, not 1
  space.add_parameter("a", {1, 2});
  space.add_parameter("b", {1, 2, 3});
  EXPECT_EQ(space.raw_size(), 6u);
  // Guards do not change the raw size.
  space.add_guard("none pass", [](const ConfigPoint&) { return false; });
  EXPECT_EQ(space.raw_size(), 6u);
}

TEST(ConfigSpace, RawSizeSaturatesInsteadOfOverflowing) {
  ConfigSpace space;
  std::vector<int> wide(100000);
  for (int i = 0; i < 100000; ++i) wide[i] = i;
  for (int p = 0; p < 5; ++p) {
    space.add_parameter(util::format("p{}", p), wide);  // 10^25 raw points
  }
  EXPECT_EQ(space.raw_size(), std::numeric_limits<std::size_t>::max());
}

TEST(ConfigSpace, FeasibleStopsAtFirstAdmissiblePoint) {
  ConfigSpace space;
  space.add_parameter("a", {1, 2, 3});
  EXPECT_TRUE(space.feasible());
  space.add_guard("a == 3", [](const ConfigPoint& p) { return p.get("a") == 3; });
  EXPECT_TRUE(space.feasible());
}

TEST(ConfigSpace, ForEachRawVisitsUnguardedProductInEnumerateOrder) {
  ConfigSpace space;
  std::size_t visits = 0;
  space.for_each_raw([&](const ConfigPoint&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0u);  // no parameters: nothing to visit

  space.add_parameter("a", {1, 2});
  space.add_parameter("b", {5, 6, 7});
  space.add_guard("none pass", [](const ConfigPoint&) { return false; });
  std::vector<std::string> keys;
  space.for_each_raw([&](const ConfigPoint& p) {
    keys.push_back(p.key());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a=1,b=5", "a=1,b=6", "a=1,b=7",
                                            "a=2,b=5", "a=2,b=6",
                                            "a=2,b=7"}));

  // Returning false stops the walk at that point.
  keys.clear();
  space.for_each_raw([&](const ConfigPoint& p) {
    keys.push_back(p.key());
    return keys.size() < 4;
  });
  EXPECT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys.back(), "a=2,b=5");
}

TEST(ConfigSpace, FeasibleIffEnumerateIsNonEmpty) {
  // Seeded random guard sets over a 3x3x2 space: each guard admits a
  // random subset of the raw points, so some sets admit nothing.
  util::SplitMix64 rng(17);
  int feasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ConfigSpace space;
    space.add_parameter("a", {0, 1, 2});
    space.add_parameter("b", {0, 1, 2});
    space.add_parameter("c", {0, 1});
    const std::size_t guards = rng.next_below(4);
    for (std::size_t g = 0; g < guards; ++g) {
      const std::uint64_t mask = rng.next();  // bit per raw point
      space.add_guard("random", [mask](const ConfigPoint& p) {
        const int bit = (p.get("a") * 3 + p.get("b")) * 2 + p.get("c");
        return ((mask >> bit) & 1u) != 0;
      });
    }
    EXPECT_EQ(space.feasible(), !space.enumerate().empty())
        << "trial " << trial;
    feasible += space.feasible() ? 1 : 0;
  }
  // Both outcomes occur, so the equivalence is exercised either way.
  EXPECT_GT(feasible, 0);
  EXPECT_LT(feasible, 200);
}

TEST(ConfigSpace, GuardsFilteringEverythingIsReportableNotSilent) {
  // Regression: a guard set that rules out every configuration must be
  // distinguishable from a space with no parameters — raw_size() > 0 with
  // feasible() == false is the linter's guard.infeasible signal.
  ConfigSpace space;
  space.add_parameter("a", {1, 2});
  space.add_guard("impossible", [](const ConfigPoint&) { return false; });
  EXPECT_EQ(space.raw_size(), 2u);
  EXPECT_FALSE(space.feasible());
  EXPECT_TRUE(space.enumerate().empty());

  ConfigSpace empty;
  EXPECT_EQ(empty.raw_size(), 0u);
  EXPECT_FALSE(empty.feasible());
}

TEST(ConfigSpace, RegistrationSitesAreCaptured) {
  ConfigSpace space;
  space.add_parameter("a", {1});           // site captured on this line
  space.add_guard("g", [](const ConfigPoint&) { return true; });
  EXPECT_NE(std::string_view(space.parameter("a").where.file_name())
                .find("test_config.cpp"),
            std::string_view::npos);
  EXPECT_NE(std::string_view(space.guards().front().where.file_name())
                .find("test_config.cpp"),
            std::string_view::npos);
}

}  // namespace
}  // namespace avf::tunable
