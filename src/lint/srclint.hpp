// Determinism & concurrency source linter (the avf_srclint tool).
//
// A *lexical* analyzer over the C++ sources in src/ and tools/ that
// enforces the two contracts the compiler cannot check for us:
//
//  * the determinism contract (DESIGN.md): simulation traces, schedules and
//    viz fingerprints are byte-identical across runs and thread counts, so
//    no code on those paths may observe hash order, wall clocks, or
//    non-seeded randomness;
//  * the concurrency contract: every lock in the tree goes through the
//    Clang-TSA-annotated util::Mutex / util::MutexLock wrappers
//    (util/mutex.hpp), so raw std primitives would silently opt out of
//    -Werror=thread-safety.
//
// Rules (stable ids in rules.hpp; catalog with severities in DESIGN.md):
//
//   src.unordered-iteration  iterating an unordered_{map,set,multimap,
//                            multiset} in a trace-affecting module
//                            (src/{sim,viz,adapt,perfdb,testkit}) — bucket
//                            order varies with ASLR and libstdc++ version
//   src.wall-clock           steady_clock / system_clock outside bench/
//   src.nondet-random        std::random_device, rand()/srand(), mt19937
//                            outside util/rng.hpp and bench/ — SplitMix64
//                            (util/rng.hpp) is the only blessed source
//   src.raw-mutex            std::mutex / lock_guard / scoped_lock /
//                            unique_lock / condition_variable outside
//                            util/mutex.hpp
//   src.float-accum          `double x; ... x += e;` inside a loop in
//                            src/sim/ — floating accumulation whose result
//                            depends on summation order; use the Neumaier
//                            util::CompensatedSum (util/stats.hpp) or
//                            justify why the order is pinned
//   src.mutable-static       a `static` variable that is neither const nor
//                            constexpr in a trace-affecting module — state
//                            every world of a process shares; caches and
//                            memos belong to an owner that passes them in
//
// A finding is suppressed by a directive on the offending line or the line
// directly above:
//
//   // avf-srclint: allow(<rule.id> <justification>)
//
// Suppressions themselves lint: an unknown rule id raises src.unknown-rule
// and a missing justification raises src.bad-suppression — both errors,
// and neither is suppressible.
//
// The analysis is lexical by design (no compiler, no AST): it strips
// comments and string literals, tracks which names were declared with an
// unordered/floating type in the file *and its sibling header*, and
// pattern-matches the rest.  That makes it fast, dependency-free and
// deterministic — and conservative: when it cannot prove a site is benign,
// the justification requirement on the suppression documents why a human
// believes it is.
#pragma once

#include <filesystem>
#include <string_view>
#include <vector>

#include "lint/diagnostic.hpp"

namespace avf::lint {

/// One entry of the source-rule catalog.
struct SrcRule {
  std::string_view id;        ///< stable id (rules.hpp), e.g. "src.raw-mutex"
  Severity severity;          ///< findings' severity (meta rules are errors)
  bool suppressible = true;   ///< may appear in an allow(...) directive
  std::string_view summary;   ///< one-line description (docs / --help)
};

/// The catalog, in stable order (findings and docs follow it).
const std::vector<SrcRule>& srclint_rules();

/// Lint one file.  `path` is the repo-relative path with forward slashes —
/// rule scoping keys on it (e.g. src.float-accum only applies under
/// src/sim/).  `sibling_header` optionally carries the contents of the
/// matching header so member declarations participate in the
/// unordered-container and float-accumulator name sets.
Report srclint_file(std::string_view path, std::string_view contents,
                    std::string_view sibling_header = {});

/// Scan every .hpp/.h/.cpp/.cc under `root`/src and `root`/tools, in
/// sorted path order, pairing each .cpp with its sibling header.  I/O
/// failures surface as lint.skipped notes, not exceptions.
Report srclint_tree(const std::filesystem::path& root);

}  // namespace avf::lint
