// Behavioral tests for the capability-annotated lock wrappers in
// common/thread_annotations.h. The *compile-time* side of the contract is
// covered by the negative canaries (tools/*_canary.cc, registered as
// WILL_FAIL ctest entries); these tests pin down the runtime semantics the
// wrappers delegate to: mutual exclusion, shared/exclusive modes, TryLock,
// and CondVar wakeups. This file itself compiles under -Werror=thread-safety
// in the clang CI job, so it doubles as a usage example the analysis accepts.

#include "common/thread_annotations.h"

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace amalur {
namespace common {
namespace {

TEST(MutexTest, ProvidesMutualExclusion) {
  struct Shared {
    Mutex mu;
    // Deliberately non-atomic: only the lock makes the increments exact.
    size_t counter GUARDED_BY(mu) = 0;
  } shared;

  constexpr size_t kThreads = 8;
  constexpr size_t kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared] {
      for (size_t i = 0; i < kIncrements; ++i) {
        MutexLock lock(shared.mu);
        ++shared.counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MutexLock lock(shared.mu);
  EXPECT_EQ(shared.counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockReflectsHeldState) {
  Mutex mu;
  mu.Lock();

  // While held here, another thread must not be able to acquire it.
  bool acquired_while_held = true;
  std::thread prober([&] {
    acquired_while_held = mu.TryLock();
    if (acquired_while_held) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(acquired_while_held);

  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SharedMutexTest, AllowsConcurrentReaders) {
  struct Shared {
    SharedMutex mu;
    int value GUARDED_BY(mu) = 7;
  } shared;

  // Every reader enters the shared section and spins until all of them are
  // inside at once. If SharedLock were exclusive this would deadlock (and
  // the test would hit the ctest timeout), so passing proves concurrency.
  constexpr size_t kReaders = 4;
  std::atomic<size_t> inside{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      SharedLock lock(shared.mu);
      inside.fetch_add(1, std::memory_order_acq_rel);
      while (inside.load(std::memory_order_acquire) < kReaders) {
      }
      EXPECT_EQ(shared.value, 7);
    });
  }
  for (std::thread& reader : readers) reader.join();
}

TEST(SharedMutexTest, WriterExcludesReaders) {
  struct Shared {
    SharedMutex mu;
    // Invariant: a == b. Only holding the exclusive lock across both stores
    // keeps a shared-mode reader from observing the intermediate state.
    int a GUARDED_BY(mu) = 0;
    int b GUARDED_BY(mu) = 0;
  } shared;

  constexpr int kRounds = 5000;
  std::atomic<bool> read_once{false};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Handshake: on a busy machine the writer could otherwise finish every
    // round before the reader's first read.
    while (!read_once.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int i = 1; i <= kRounds; ++i) {
      MutexLock lock(shared.mu);  // exclusive mode on the SharedMutex
      shared.a = i;
      shared.b = i;
    }
    stop.store(true, std::memory_order_release);
  });

  size_t reads = 0;
  while (!stop.load(std::memory_order_acquire)) {
    SharedLock lock(shared.mu);
    EXPECT_EQ(shared.a, shared.b);
    ++reads;
    read_once.store(true, std::memory_order_release);
  }
  writer.join();
  EXPECT_GT(reads, 0u);

  MutexLock lock(shared.mu);
  EXPECT_EQ(shared.a, kRounds);
  EXPECT_EQ(shared.b, kRounds);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  struct Shared {
    Mutex mu;
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
    bool consumed GUARDED_BY(mu) = false;
  } shared;

  std::thread consumer([&] {
    MutexLock lock(shared.mu);
    // House idiom: explicit wait loop, no predicate lambda — the analysis
    // sees the guarded read of `ready` under `mu`.
    while (!shared.ready) shared.cv.Wait(shared.mu);
    shared.consumed = true;
    shared.cv.NotifyAll();
  });

  {
    MutexLock lock(shared.mu);
    shared.ready = true;
  }
  shared.cv.NotifyAll();

  {
    MutexLock lock(shared.mu);
    while (!shared.consumed) shared.cv.Wait(shared.mu);
    EXPECT_TRUE(shared.consumed);
  }
  consumer.join();
}

}  // namespace
}  // namespace common
}  // namespace amalur
