#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

/// \file thread_annotations.h
/// Clang thread-safety annotations (Abseil style) plus the capability-
/// annotated lock wrappers every concurrent subsystem in the library uses.
///
/// The macros expand to Clang `thread_safety` attributes when the compiler
/// supports them and to nothing otherwise (GCC builds see plain mutexes), so
/// annotating costs nothing at runtime and nothing on non-Clang toolchains.
/// A dedicated CI job compiles the library with Clang and
/// `-Werror=thread-safety`, turning the locking discipline — "this field is
/// only touched under that mutex", "this helper requires the lock held" —
/// into a compile-time proof instead of a property TSan hopes to catch
/// dynamically. A negative "canary" target (tools/annotation_canary.cc)
/// asserts that the gate actually rejects an unlocked access, so the job
/// cannot rot into a green no-op.
///
/// House rule (enforced by tools/amalur_lint.py): code under src/ must not
/// use `std::mutex` / `std::shared_mutex` / their lock guards directly —
/// only the wrappers below, because only the wrappers carry capability
/// annotations the analysis can see. Tests and tools are free to use the
/// standard primitives.

// ---------------------------------------------------------------- macros

#if defined(__clang__) && (!defined(SWIG))
#define AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Declares a class to be a lockable capability ("mutex").
#define CAPABILITY(x) AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Declares that a field may only be accessed while holding `x`.
#define GUARDED_BY(x) AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Declares that the data *pointed to* by a pointer field is guarded by `x`
/// (the pointer itself may be read without the lock).
#define PT_GUARDED_BY(x) AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Declares lock-ordering edges: this mutex must be acquired before / after
/// the listed ones.
#define ACQUIRED_BEFORE(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function may only be called with the listed capabilities held
/// (exclusively / shared).
#define REQUIRES(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and does not release it.
#define ACQUIRE(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (generic form: works for both
/// exclusive and shared holds, which is what scoped-lock destructors need).
#define RELEASE(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The function attempts to acquire the capability; `b` is the success value.
#define TRY_ACQUIRE(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

/// The function may only be called while the listed capabilities are NOT
/// held (anti-deadlock: documents "takes the lock itself").
#define EXCLUDES(...) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (for code the analysis
/// cannot follow), teaching the analysis it is held from here on.
#define ASSERT_CAPABILITY(x) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function is deliberately outside the analysis.
#define NO_THREAD_SAFETY_ANALYSIS \
  AMALUR_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

// --------------------------------------------------------------- wrappers

namespace amalur {
namespace common {

class CondVar;

/// A plain mutex carrying the `capability` annotation, so fields can be
/// declared `GUARDED_BY(mu_)` and helpers `REQUIRES(mu_)`. Same cost as the
/// `std::mutex` it wraps.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// A reader/writer mutex carrying the `capability` annotation. Exclusive
/// holds satisfy `REQUIRES`, shared holds satisfy `REQUIRES_SHARED` (and the
/// analysis rejects writes to `GUARDED_BY` state under a shared hold).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over a `Mutex` or a `SharedMutex` (writer side).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu.Lock(); }
  explicit MutexLock(SharedMutex& mu) ACQUIRE(mu) : shared_(&mu) { mu.Lock(); }
  ~MutexLock() RELEASE() {
    if (mu_ != nullptr) {
      mu_->Unlock();
    } else {
      shared_->Unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* mu_ = nullptr;
  SharedMutex* shared_ = nullptr;
};

/// RAII shared (reader) lock over a `SharedMutex`.
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu.LockShared();
  }
  ~SharedLock() RELEASE() { mu_->UnlockShared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex* mu_ = nullptr;
};

/// Condition variable paired with `Mutex`. `Wait` atomically releases the
/// mutex and reacquires it before returning, so from the analysis's point of
/// view the capability is held across the call — which is exactly the
/// guarantee guarded reads in a wait loop need. House idiom: wait in an
/// explicit `while (!predicate) cv.Wait(mu);` loop rather than a predicate
/// lambda (the analysis cannot see lock state inside a lambda body).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu` (enforced): blocks until notified.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the re-acquired mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Runs a function at most once however many threads race to `Run`
/// (`std::call_once`): every caller returns after that one run finished and
/// sees what it wrote, so state built under it and read-only afterwards
/// needs no lock.
class Once {
 public:
  Once() = default;
  Once(const Once&) = delete;
  Once& operator=(const Once&) = delete;

  template <typename Fn>
  void Run(Fn&& fn) {
    std::call_once(flag_, std::forward<Fn>(fn));
  }

 private:
  std::once_flag flag_;
};

}  // namespace common
}  // namespace amalur
