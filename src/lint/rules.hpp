// Stable rule identifiers for the tunability-spec linter.  The catalog —
// with severities and what each rule means — is documented in DESIGN.md §9;
// tests and tools match on these ids, so treat them as API.
#pragma once

#include <string_view>

namespace avf::lint::rules {

// -- reference integrity (ref.*) ---------------------------------------
inline constexpr std::string_view kUndefinedParam = "ref.undefined-param";
inline constexpr std::string_view kUndefinedMetric = "ref.undefined-metric";
inline constexpr std::string_view kEmptyName = "ref.empty-name";
inline constexpr std::string_view kDuplicateReference =
    "ref.duplicate-reference";
inline constexpr std::string_view kDuplicateTask = "ref.duplicate-task";
inline constexpr std::string_view kDuplicateTransition =
    "ref.duplicate-transition";
inline constexpr std::string_view kUnusedParam = "ref.unused-param";
inline constexpr std::string_view kUnusedMetric = "ref.unused-metric";

// -- parameter domain sanity (param.*) ---------------------------------
inline constexpr std::string_view kDuplicateValue = "param.duplicate-value";

// -- guard feasibility (guard.*) ---------------------------------------
inline constexpr std::string_view kEmptySpace = "guard.empty-space";
inline constexpr std::string_view kInfeasible = "guard.infeasible";
inline constexpr std::string_view kDeadValue = "guard.dead-value";
inline constexpr std::string_view kConstantParam = "guard.constant-parameter";

// -- transition connectivity (transition.*) ----------------------------
inline constexpr std::string_view kAlwaysVeto = "transition.always-veto";
inline constexpr std::string_view kUnreachable = "transition.unreachable";

// -- preference / metric consistency (pref.*) --------------------------
inline constexpr std::string_view kPrefUndefinedMetric =
    "pref.undefined-metric";
inline constexpr std::string_view kPrefNoObjective = "pref.no-objective";
inline constexpr std::string_view kPrefEmptyRange = "pref.empty-range";
inline constexpr std::string_view kPrefVacuousConstraint =
    "pref.vacuous-constraint";
inline constexpr std::string_view kPrefDuplicateConstraint =
    "pref.duplicate-constraint";
inline constexpr std::string_view kPrefObjectiveDirection =
    "pref.objective-direction";
inline constexpr std::string_view kPrefNone = "pref.none";

// -- performance-database coverage (db.*) ------------------------------
inline constexpr std::string_view kDbAxisMismatch = "db.axis-mismatch";
inline constexpr std::string_view kDbMetricMismatch = "db.metric-mismatch";
inline constexpr std::string_view kDbInvalidConfig = "db.invalid-config";
inline constexpr std::string_view kDbUnprofiledConfig = "db.unprofiled-config";
inline constexpr std::string_view kDbPredictedConfig = "db.predicted-config";
inline constexpr std::string_view kDbEmpty = "db.empty";

// -- source determinism / concurrency (src.*, avf_srclint) -------------
inline constexpr std::string_view kSrcUnorderedIter =
    "src.unordered-iteration";
inline constexpr std::string_view kSrcWallClock = "src.wall-clock";
inline constexpr std::string_view kSrcNondetRandom = "src.nondet-random";
inline constexpr std::string_view kSrcRawMutex = "src.raw-mutex";
inline constexpr std::string_view kSrcFloatAccum = "src.float-accum";
inline constexpr std::string_view kSrcMutableStatic = "src.mutable-static";
inline constexpr std::string_view kSrcUnknownRule = "src.unknown-rule";
inline constexpr std::string_view kSrcBadSuppression =
    "src.bad-suppression";

// -- meta --------------------------------------------------------------
inline constexpr std::string_view kSkipped = "lint.skipped";

}  // namespace avf::lint::rules
