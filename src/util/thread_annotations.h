// Clang thread-safety-analysis attribute wrappers.
//
// These macros attach Clang's `-Wthread-safety` capability annotations to
// mutexes, guarded fields and locking functions, turning the single-writer /
// multi-reader contracts established in DESIGN.md §4b into *compile-time*
// properties: touching a GUARDED_BY field without holding its mutex, or
// returning from a function that still holds an ACQUIRE'd lock, is a build
// error under Clang (the CI `lint` job builds with -Wthread-safety -Werror).
// On compilers without the attributes (GCC, MSVC) every macro expands to
// nothing, so the annotations cost nothing outside analysis builds.
//
// Follows the naming of clang.llvm.org/docs/ThreadSafetyAnalysis.html with an
// MBI_ prefix. Use mbi::Mutex / mbi::MutexLock (util/mutex.h) rather than
// std::mutex so the annotations actually bind; tools/mbi_analyzer (rule
// `raw-mutex`) enforces this outside util/.

#ifndef MBI_UTIL_THREAD_ANNOTATIONS_H_
#define MBI_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define MBI_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MBI_THREAD_ANNOTATION(x)  // no-op
#endif

/// Marks a class as a lockable capability ("mutex", "role", ...).
#define MBI_CAPABILITY(x) MBI_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability at construction and
/// releases it at destruction.
#define MBI_SCOPED_CAPABILITY MBI_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define MBI_GUARDED_BY(x) MBI_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is protected by `x` (the pointer itself may
/// be read freely).
#define MBI_PT_GUARDED_BY(x) MBI_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and they
/// stay held on exit).
#define MBI_REQUIRES(...) \
  MBI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MBI_REQUIRES_SHARED(...) \
  MBI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities.
#define MBI_ACQUIRE(...) MBI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MBI_ACQUIRE_SHARED(...) \
  MBI_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define MBI_RELEASE(...) MBI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MBI_RELEASE_SHARED(...) \
  MBI_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function tries to acquire the capability; returns `b` on success.
#define MBI_TRY_ACQUIRE(...) \
  MBI_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function may not be called while holding the listed capabilities
/// (deadlock prevention for non-reentrant locks).
#define MBI_EXCLUDES(...) MBI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a lock-acquisition ordering between two mutexes.
#define MBI_ACQUIRED_BEFORE(...) \
  MBI_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MBI_ACQUIRED_AFTER(...) \
  MBI_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to a value protected by `x`.
#define MBI_RETURN_CAPABILITY(x) MBI_THREAD_ANNOTATION(lock_returned(x))

/// Runtime assertion that the calling thread holds the capability; teaches
/// the analysis about externally enforced invariants.
#define MBI_ASSERT_CAPABILITY(x) \
  MBI_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables analysis for one function. Every use must carry a
/// comment explaining why the access pattern is safe (e.g. a disjoint-slot
/// handoff to worker threads that the analysis cannot express).
#define MBI_NO_THREAD_SAFETY_ANALYSIS \
  MBI_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // MBI_UTIL_THREAD_ANNOTATIONS_H_
