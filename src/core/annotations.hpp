#pragma once
/// \file annotations.hpp
/// Clang thread-safety annotations + annotated synchronization wrappers.
///
/// The CAT_* macros expand to Clang's thread-safety attributes when the
/// compiler supports them (clang builds run with -Wthread-safety promoted
/// to an error by the build system) and to nothing elsewhere, so GCC
/// builds are unaffected. std::mutex / std::lock_guard carry no
/// annotations, which would blind the analysis exactly where it matters —
/// cat::Mutex, cat::MutexLock and cat::CondVar below are thin annotated
/// wrappers that keep every acquisition visible to the analyzer while
/// still being plain standard-library synchronization underneath.
///
/// Usage (see core/thread_pool.hpp for the worked example):
///
///   cat::Mutex mu_;
///   int shared_ CAT_GUARDED_BY(mu_);
///   void touch() { cat::MutexLock lock(mu_); ++shared_; }

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define CAT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CAT_THREAD_ANNOTATION
#define CAT_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Type is a lockable capability (mutex-like).
#define CAT_CAPABILITY(x) CAT_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires a capability in its constructor and releases
/// it in its destructor.
#define CAT_SCOPED_CAPABILITY CAT_THREAD_ANNOTATION(scoped_lockable)
/// Data member is protected by the given capability.
#define CAT_GUARDED_BY(x) CAT_THREAD_ANNOTATION(guarded_by(x))
/// Pointed-to data is protected by the given capability.
#define CAT_PT_GUARDED_BY(x) CAT_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability to be held by the caller.
#define CAT_REQUIRES(...) \
  CAT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability (and does not release it).
#define CAT_ACQUIRE(...) \
  CAT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define CAT_RELEASE(...) \
  CAT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held.
#define CAT_EXCLUDES(...) CAT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Escape hatch: disable the analysis for one function (document why).
#define CAT_NO_THREAD_SAFETY_ANALYSIS \
  CAT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cat {

/// std::mutex with the lock/unlock operations visible to the analyzer.
class CAT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CAT_ACQUIRE() { m_.lock(); }
  void unlock() CAT_RELEASE() { m_.unlock(); }

  /// Underlying std::mutex for APIs that need it (CondVar). Callers must
  /// not lock/unlock through this handle — that would bypass the
  /// analysis.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Scoped lock over cat::Mutex (std::lock_guard is unannotated).
class CAT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CAT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CAT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable working against cat::Mutex. wait() requires the
/// mutex held (it is released while blocked and re-held on return, which
/// is exactly the capability contract the annotation expresses).
class CondVar {
 public:
  template <class Predicate>
  void wait(Mutex& mu, Predicate pred) CAT_REQUIRES(mu) {
    // Adopt the already-held mutex for the std::condition_variable
    // protocol, then release the std handle so ownership stays with the
    // caller's MutexLock when we return.
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native, pred);
    native.release();
  }

  /// Timed wait: returns pred() — false means the wait timed out with the
  /// predicate still unsatisfied. Same held-mutex protocol as wait().
  template <class Rep, class Period, class Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) CAT_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const bool satisfied = cv_.wait_for(native, timeout, pred);
    native.release();
    return satisfied;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cat
