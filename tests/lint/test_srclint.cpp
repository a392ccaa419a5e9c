// avf_srclint scanner tests: each fixture under srclint_fixtures/ seeds one
// rule's defect and is asserted by stable rule id; plus suppression
// round-trip, meta-rule (unknown rule / missing justification) and path
// scoping coverage.  AVF_SRCLINT_FIXTURE_DIR is injected by CMake.
#include "lint/srclint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lint/rules.hpp"

namespace {

using avf::lint::Report;
using avf::lint::Severity;
using avf::lint::srclint_file;
using avf::lint::srclint_rules;
namespace rules = avf::lint::rules;

std::string fixture(const std::string& name) {
  std::string path = std::string(AVF_SRCLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_rule(const Report& report, std::string_view rule) {
  std::size_t n = 0;
  for (const auto& diagnostic : report.diagnostics()) {
    if (diagnostic.rule == rule) ++n;
  }
  return n;
}

TEST(SrcLint, UnorderedIterationFixtureFlaggedByRuleId) {
  Report report =
      srclint_file("src/sim/unordered_iteration.cpp",
                   fixture("unordered_iteration.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcUnorderedIter));
  EXPECT_EQ(count_rule(report, rules::kSrcUnorderedIter), 2u);
  EXPECT_EQ(report.diagnostics().size(), 2u);  // no other rule fires
  EXPECT_FALSE(report.has_errors());           // warnings, gated by --strict
}

TEST(SrcLint, UnorderedIterationScopedToTraceAffectingModules) {
  Report report = srclint_file("src/util/unordered_iteration.cpp",
                               fixture("unordered_iteration.cpp"));
  EXPECT_FALSE(report.has_rule(rules::kSrcUnorderedIter));
}

TEST(SrcLint, SiblingHeaderDeclaresTheUnorderedMember) {
  // The .cpp alone has no declaration; the member lives in the header.
  std::string header =
      "#include <unordered_map>\n"
      "struct Index { std::unordered_map<int, int> by_id_; int walk(); };\n";
  std::string source =
      "int Index::walk() {\n"
      "  int acc = 0;\n"
      "  for (const auto& [k, v] : by_id_) acc += k + v;\n"
      "  return acc;\n"
      "}\n";
  EXPECT_FALSE(srclint_file("src/sim/index.cpp", source)
                   .has_rule(rules::kSrcUnorderedIter));
  Report with_header = srclint_file("src/sim/index.cpp", source, header);
  EXPECT_TRUE(with_header.has_rule(rules::kSrcUnorderedIter));
}

TEST(SrcLint, WallClockFixtureFlaggedByRuleId) {
  Report report =
      srclint_file("src/adapt/wall_clock.cpp", fixture("wall_clock.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcWallClock));
  EXPECT_EQ(count_rule(report, rules::kSrcWallClock), 3u);  // 3 lines
}

TEST(SrcLint, WallClockAllowedInBench) {
  Report report =
      srclint_file("bench/wall_clock.cpp", fixture("wall_clock.cpp"));
  EXPECT_FALSE(report.has_rule(rules::kSrcWallClock));
}

TEST(SrcLint, NondetRandomFixtureFlaggedByRuleId) {
  Report report = srclint_file("src/viz/nondet_random.cpp",
                               fixture("nondet_random.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcNondetRandom));
  EXPECT_EQ(count_rule(report, rules::kSrcNondetRandom), 2u);
}

TEST(SrcLint, RandomEngineAllowedInRngHeader) {
  Report report =
      srclint_file("src/util/rng.hpp", "std::mt19937 engine_;\n");
  EXPECT_TRUE(report.empty());
}

TEST(SrcLint, RawMutexFixtureFlaggedByRuleId) {
  Report report =
      srclint_file("src/util/raw_mutex.cpp", fixture("raw_mutex.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcRawMutex));
  EXPECT_EQ(count_rule(report, rules::kSrcRawMutex), 2u);
}

TEST(SrcLint, RawMutexWrapperFileIsExempt) {
  Report report =
      srclint_file("src/util/mutex.hpp", fixture("raw_mutex.cpp"));
  EXPECT_FALSE(report.has_rule(rules::kSrcRawMutex));
}

TEST(SrcLint, AnnotatedConditionVariableAnyIsNotRaw) {
  Report report = srclint_file(
      "src/util/pool.hpp", "std::condition_variable_any wake_;\n");
  EXPECT_FALSE(report.has_rule(rules::kSrcRawMutex));
}

TEST(SrcLint, FloatAccumFixtureFlaggedByRuleId) {
  Report report =
      srclint_file("src/sim/float_accum.cpp", fixture("float_accum.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcFloatAccum));
  EXPECT_EQ(count_rule(report, rules::kSrcFloatAccum), 2u);  // += and -=
}

TEST(SrcLint, FloatAccumScopedToSim) {
  Report report =
      srclint_file("src/viz/float_accum.cpp", fixture("float_accum.cpp"));
  EXPECT_FALSE(report.has_rule(rules::kSrcFloatAccum));
}

TEST(SrcLint, FloatAccumOutsideLoopNotFlagged) {
  Report report = srclint_file(
      "src/sim/once.cpp", "double tally(double a) {\n"
                          "  double x = 0.0;\n"
                          "  x += a;\n"
                          "  return x;\n"
                          "}\n");
  EXPECT_FALSE(report.has_rule(rules::kSrcFloatAccum));
}

TEST(SrcLint, SuppressionRoundTripIsClean) {
  Report report =
      srclint_file("src/sim/suppressed.cpp", fixture("suppressed.cpp"));
  EXPECT_TRUE(report.empty()) << report.str();
}

TEST(SrcLint, SuppressionOnTheSameLineWorks) {
  Report report = srclint_file(
      "src/adapt/timed.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// avf-srclint: allow(src.wall-clock measurement-only diagnostics)\n");
  EXPECT_TRUE(report.empty()) << report.str();
}

TEST(SrcLint, UnknownRuleInSuppressionIsAnError) {
  Report report =
      srclint_file("src/sim/unknown_rule.cpp", fixture("unknown_rule.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcUnknownRule));
  EXPECT_TRUE(report.has_errors());
}

TEST(SrcLint, MissingJustificationIsAnErrorAndDoesNotSuppress) {
  Report report = srclint_file("src/sim/missing_justification.cpp",
                               fixture("missing_justification.cpp"));
  EXPECT_TRUE(report.has_rule(rules::kSrcBadSuppression));
  EXPECT_TRUE(report.has_errors());
  // The unjustified directive must not silence the finding it targeted.
  EXPECT_TRUE(report.has_rule(rules::kSrcNondetRandom));
}

TEST(SrcLint, MetaRulesCannotBeSuppressed) {
  Report report = srclint_file(
      "src/sim/meta.cpp",
      "// avf-srclint: allow(src.unknown-rule trying to silence the meta "
      "rule)\nint x = 0;\n");
  EXPECT_TRUE(report.has_rule(rules::kSrcBadSuppression));
  EXPECT_TRUE(report.has_errors());
}

TEST(SrcLint, DirectiveMustBeTheWholeComment) {
  // Prose *about* the syntax (e.g. documentation) must not parse as a
  // directive — and must not raise meta diagnostics either.
  Report report = srclint_file(
      "src/sim/docs.cpp",
      "// suppress with avf-srclint: allow(src.wall-clock reason) above\n"
      "int x = 0;\n");
  EXPECT_TRUE(report.empty()) << report.str();
}

TEST(SrcLint, CommentsAndStringsDoNotTrigger) {
  Report report = srclint_file(
      "src/util/strings.cpp",
      "// std::mutex in prose, steady_clock too\n"
      "const char* kMessage = \"std::mutex and rand() and steady_clock\";\n");
  EXPECT_TRUE(report.empty()) << report.str();
}

TEST(SrcLint, SuppressionTwoLinesAwayDoesNotApply) {
  Report report = srclint_file(
      "src/adapt/far.cpp",
      "// avf-srclint: allow(src.wall-clock too far from the finding)\n"
      "int pad = 0;\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(report.has_rule(rules::kSrcWallClock));
}

TEST(SrcLint, MutableStaticVariablesFlagged) {
  Report report = srclint_file(
      "src/viz/globals.cpp",
      "static int counter = 0;\n"
      "namespace {\n"
      "static Cache cache;\n"
      "}\n"
      "Store& shared() {\n"
      "  static Store store(Options{});\n"
      "  static std::atomic<int> calls{0};\n"
      "  return store;\n"
      "}\n");
  EXPECT_EQ(count_rule(report, rules::kSrcMutableStatic), 4u) << report.str();
  EXPECT_EQ(report.diagnostics().size(), 4u);
  EXPECT_FALSE(report.has_errors());
}

TEST(SrcLint, MutableStaticLexerCases) {
  // None of these is a mutable static variable.
  Report report = srclint_file(
      "src/viz/not_globals.cpp",
      "#include <map>\n"
      "namespace avf {\n"
      "static int forward_declared(int x);\n"
      "}  // namespace avf\n"
      "static_assert(sizeof(int) == 4);\n"
      "static void helper(int x) { (void)static_cast<long>(x); }\n"
      "static const int kLimit = 3;\n"
      "static constexpr double kScale = 0.5;\n"
      "struct Store {\n"
      "  static Store& global();\n"
      "  static std::map<int, int> make(std::function<void(int)> f);\n"
      "  static constexpr std::size_t kShards = 16;\n"
      "  static bool operator<(const Store&, const Store&);\n"
      "};\n"
      "const Spec& spec() {\n"
      "  static const Spec s = [] { Spec t; return t; }();\n"
      "  return s;\n"
      "}\n"
      "// static int in_a_comment;\n"
      "const char* kText = \"static int in_a_string;\";\n");
  EXPECT_TRUE(report.empty()) << report.str();
}

TEST(SrcLint, MutableStaticScopedToTraceAffectingModules) {
  const std::string source =
      "int next_id() { static int id = 0; return ++id; }\n";
  EXPECT_TRUE(srclint_file("src/sim/ids.cpp", source)
                  .has_rule(rules::kSrcMutableStatic));
  EXPECT_FALSE(srclint_file("src/util/ids.cpp", source)
                   .has_rule(rules::kSrcMutableStatic));
  EXPECT_TRUE(srclint_file("src/sim/ids.cpp",
                           "int next_id() {\n"
                           "  // avf-srclint: allow(src.mutable-static ids "
                           "only label log lines)\n"
                           "  static int id = 0;\n"
                           "  return ++id;\n"
                           "}\n")
                  .empty());
}

TEST(SrcLint, RuleCatalogIsStable) {
  const auto& catalog = srclint_rules();
  ASSERT_EQ(catalog.size(), 8u);
  EXPECT_EQ(catalog[0].id, rules::kSrcUnorderedIter);
  EXPECT_EQ(catalog[1].id, rules::kSrcWallClock);
  EXPECT_EQ(catalog[2].id, rules::kSrcNondetRandom);
  EXPECT_EQ(catalog[3].id, rules::kSrcRawMutex);
  EXPECT_EQ(catalog[4].id, rules::kSrcFloatAccum);
  EXPECT_EQ(catalog[5].id, rules::kSrcMutableStatic);
  EXPECT_EQ(catalog[6].id, rules::kSrcUnknownRule);
  EXPECT_EQ(catalog[7].id, rules::kSrcBadSuppression);
  for (const auto& rule : catalog) {
    bool meta = rule.id == rules::kSrcUnknownRule ||
                rule.id == rules::kSrcBadSuppression;
    EXPECT_EQ(rule.suppressible, !meta) << rule.id;
    EXPECT_EQ(rule.severity == Severity::kError, meta) << rule.id;
  }
}

}  // namespace
