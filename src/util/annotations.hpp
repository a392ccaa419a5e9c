// Clang Thread Safety Analysis annotations for the concurrency contract.
//
// The repo's determinism guarantee (byte-identical traces and fingerprints
// at any thread count) leans on a small set of mutex-guarded shared
// structures: the thread pool's loop state, the process-wide viz caches, the
// logger sink, the viz pyramid memo, and the prediction cache.
// Until now the lock discipline around them was enforced only dynamically
// (the TSan CI tier); these macros move the contract to compile time.
//
// Under clang, `-Wthread-safety -Wthread-safety-beta -Werror=thread-safety`
// turns every unannotated cross-thread access into a build error: a field
// marked AVF_GUARDED_BY(mu) may only be touched while `mu` is held, a
// method marked AVF_REQUIRES(mu) may only be called with `mu` held, and a
// method marked AVF_EXCLUDES(mu) may not be called while holding it (it
// acquires the lock itself).  Off clang (gcc builds, which is what the
// tier-1 trees use) every macro expands to nothing, so the annotations are
// zero-cost documentation there — the CI `tier1-tsa` job is the gate.
//
// Conventions (DESIGN.md §"static concurrency contract"):
//   - data:    AVF_GUARDED_BY(mu) on every field a mutex protects;
//              AVF_PT_GUARDED_BY(mu) when the *pointee* is what's guarded.
//   - private helpers that assume the caller already locked:
//              AVF_REQUIRES(mu).
//   - public self-locking entry points: AVF_EXCLUDES(mu), so a caller
//     that already holds the lock is rejected (no silent recursion).
//   - condition-variable predicates and other spots TSA provably cannot
//     follow: AVF_NO_THREAD_SAFETY_ANALYSIS, with a comment saying why.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define AVF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef AVF_THREAD_ANNOTATION
#define AVF_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// A type that models a capability (our util::Mutex).
#define AVF_CAPABILITY(name) AVF_THREAD_ANNOTATION(capability(name))

/// An RAII type that acquires a capability at construction and releases it
/// at destruction (our util::MutexLock).
#define AVF_SCOPED_CAPABILITY AVF_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be accessed while holding `mu`.
#define AVF_GUARDED_BY(mu) AVF_THREAD_ANNOTATION(guarded_by(mu))

/// Pointer field whose *pointee* may only be accessed while holding `mu`.
#define AVF_PT_GUARDED_BY(mu) AVF_THREAD_ANNOTATION(pt_guarded_by(mu))

/// Function requires the listed capabilities to be held on entry (and does
/// not release them).
#define AVF_REQUIRES(...) \
  AVF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define AVF_ACQUIRE(...) \
  AVF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define AVF_RELEASE(...) \
  AVF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define AVF_TRY_ACQUIRE(result, ...) \
  AVF_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities (it
/// acquires them itself; calling with them held would self-deadlock).
#define AVF_EXCLUDES(...) AVF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define AVF_RETURN_CAPABILITY(x) AVF_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code TSA cannot follow (condition-variable predicates,
/// init-before-threads patterns).  Every use carries a justifying comment.
#define AVF_NO_THREAD_SAFETY_ANALYSIS \
  AVF_THREAD_ANNOTATION(no_thread_safety_analysis)
