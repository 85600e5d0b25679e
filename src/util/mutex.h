// Annotated mutex / condition-variable wrappers.
//
// mbi::Mutex wraps std::mutex and carries the Clang capability annotation,
// so fields declared MBI_GUARDED_BY(mu_) are compile-time checked under
// -Wthread-safety (see util/thread_annotations.h). mbi::MutexLock is the RAII
// guard; mbi::CondVar pairs with Mutex the way port::CondVar pairs with
// port::Mutex in LevelDB. All shared-state owners in the library use these
// instead of raw std::mutex — enforced by tools/mbi_analyzer (rule
// `raw-mutex`).

#ifndef MBI_UTIL_MUTEX_H_
#define MBI_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>  // mbi-lint: allow(raw-mutex) — the wrapper itself

#include "util/thread_annotations.h"

namespace mbi {

/// A std::mutex with thread-safety-analysis annotations.
class MBI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MBI_ACQUIRE() { mu_.lock(); }
  void Unlock() MBI_RELEASE() { mu_.unlock(); }
  bool TryLock() MBI_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Annotation-only assertion that the current thread holds the mutex;
  /// lets helper functions document (and the analysis verify) a
  /// caller-holds-the-lock contract without re-locking.
  void AssertHeld() MBI_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock guard for mbi::Mutex.
class MBI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MBI_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MBI_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for use with mbi::Mutex. Wait(mu) must be called with
/// `mu` held (checked by the analysis: the mutex is passed at the call site
/// so Clang can match the capability expression); it atomically releases the
/// mutex while blocked and reacquires it before returning — standard
/// condition-variable semantics, expressed on the annotated wrapper.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) MBI_REQUIRES(mu) {
    // Adopt the already-held lock for the duration of the wait, then release
    // the unique_lock wrapper so ownership stays with the caller.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Timed wait: blocks for at most `seconds` (<= 0 returns immediately
  /// without releasing the mutex). Returns true if notified, false on
  /// timeout. Like any condition wait, spurious wakeups are possible —
  /// callers re-check their predicate either way.
  bool WaitFor(Mutex& mu, double seconds) MBI_REQUIRES(mu) {
    if (seconds <= 0.0) return false;
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool notified =
        cv_.wait_for(lock, std::chrono::duration<double>(seconds)) ==
        std::cv_status::no_timeout;
    lock.release();
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mbi

#endif  // MBI_UTIL_MUTEX_H_
