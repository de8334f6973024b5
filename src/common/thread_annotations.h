// Clang thread-safety-analysis annotation macros.
//
// These attach lock-discipline facts to types, fields, and functions:
// which mutex guards a field, which capability a function requires, what a
// scoped lock acquires and releases. Under clang the attributes feed
// `-Wthread-safety` (enabled automatically by the build when the compiler
// is clang, see SNCUBE_THREAD_SAFETY in the top-level CMakeLists), turning
// the concurrency contracts of src/serve and src/net into compile errors
// when violated. Under other compilers the macros expand to nothing, so the
// annotations cost nothing and the code stays portable.
//
// The vocabulary follows the standard capability model (same macro set as
// abseil/base/thread_annotations.h, SNCUBE_-prefixed):
//
//   SNCUBE_GUARDED_BY(mu)   field may only be accessed while holding mu
//   SNCUBE_REQUIRES(mu)     caller must hold mu when calling this function
//   SNCUBE_EXCLUDES(mu)     caller must NOT hold mu (function locks it)
//   SNCUBE_ACQUIRE/RELEASE  function enters/exits with the capability
//   SNCUBE_ACQUIRED_AFTER / SNCUBE_ACQUIRED_BEFORE
//                           declared lock-ordering hierarchy (see
//                           serve/lock_order.h): clang checks it under
//                           -Wthread-safety-beta, and sncheck.py reads
//                           the same declarations textually to cross-check
//                           the observed acquired-while-held graph on every
//                           platform
//
// See DESIGN.md §9 for the invariant list and the suppression policy
// (SNCUBE_NO_THREAD_SAFETY_ANALYSIS requires an inline justification).
#pragma once

#if defined(__clang__)
#define SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

// On types: marks a class as a capability (a lock) in error messages.
#define SNCUBE_CAPABILITY(x) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// On types: RAII object that acquires a capability in its constructor and
// releases it in its destructor.
#define SNCUBE_SCOPED_CAPABILITY \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// On fields: readable/writable only while holding the given capability.
#define SNCUBE_GUARDED_BY(x) SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// On pointer fields: the pointed-to data is guarded (the pointer itself is
// not).
#define SNCUBE_PT_GUARDED_BY(x) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// On functions: the caller must hold the capabilities when calling.
#define SNCUBE_REQUIRES(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

// On functions: the caller must NOT hold the capabilities (the function
// acquires them itself; calling with them held would self-deadlock).
#define SNCUBE_EXCLUDES(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// On functions: the function acquires / releases the capability.
#define SNCUBE_ACQUIRE(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define SNCUBE_RELEASE(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

// On mutex declarations: declared acquisition order. A mutex marked
// ACQUIRED_AFTER(a) must only ever be acquired while `a` is (optionally)
// already held — holding it and then taking `a` inverts the hierarchy.
// ACQUIRED_BEFORE is the mirror image. Two independent checkers consume
// these: clang's -Wthread-safety-beta (the CI lint build) and the
// tools/lint/sncheck.py lock-order rule, which parses the declarations
// textually and fails on any observed acquired-while-held edge that
// contradicts them — so the hierarchy is enforced even on gcc-only hosts.
#define SNCUBE_ACQUIRED_AFTER(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define SNCUBE_ACQUIRED_BEFORE(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))

// On functions: try-lock that acquires the capability when it returns the
// given success value: SNCUBE_TRY_ACQUIRE(true) or
// SNCUBE_TRY_ACQUIRE(true, mu). The success value rides in __VA_ARGS__ so
// the single-argument form does not leave a trailing comma.
#define SNCUBE_TRY_ACQUIRE(...) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// On functions: returns a reference to the given capability (lets callers
// lock through an accessor).
#define SNCUBE_RETURN_CAPABILITY(x) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// On functions: runtime assertion that the capability is held (adds the
// fact to the analysis without a lock operation).
#define SNCUBE_ASSERT_CAPABILITY(x) \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

// Escape hatch: disables the analysis for one function. Every use must
// carry an adjacent comment justifying why the access pattern is safe but
// inexpressible (see DESIGN.md §9).
#define SNCUBE_NO_THREAD_SAFETY_ANALYSIS \
  SNCUBE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)
