#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace amalur {
namespace common {
namespace {

/// Every test forces a known thread count and restores the default after,
/// so suites stay order-independent.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }
};

TEST_F(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(DefaultNumThreads(), 1u);
  EXPECT_GE(NumThreads(), 1u);
}

TEST_F(ThreadPoolTest, SetNumThreadsOverridesAndZeroRestores) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3u);
  SetNumThreads(0);
  EXPECT_EQ(NumThreads(), DefaultNumThreads());
}

TEST_F(ThreadPoolTest, ScopedOverrideRestoresPrevious) {
  SetNumThreads(2);
  {
    ScopedNumThreads scope(5);
    EXPECT_EQ(NumThreads(), 5u);
  }
  EXPECT_EQ(NumThreads(), 2u);
  {
    ScopedNumThreads no_op(0);  // 0 leaves the current setting untouched
    EXPECT_EQ(NumThreads(), 2u);
  }
  EXPECT_EQ(NumThreads(), 2u);
}

TEST_F(ThreadPoolTest, EmptyRangeNeverInvokes) {
  SetNumThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });  // end < begin
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ThreadPoolTest, GrainLargerThanRangeRunsOneChunk) {
  SetNumThreads(4);
  int calls = 0;
  size_t seen_begin = 0, seen_end = 0;
  ParallelFor(2, 12, 100, [&](size_t begin, size_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 2u);
  EXPECT_EQ(seen_end, 12u);
}

TEST_F(ThreadPoolTest, SingleThreadRunsWholeRangeSerially) {
  SetNumThreads(1);
  int calls = 0;
  ParallelFor(0, 1000, 1, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ThreadPoolTest, ChunksPartitionTheRangeExactly) {
  for (size_t threads : {2u, 3u, 4u, 7u}) {
    SetNumThreads(threads);
    const size_t kBegin = 3, kEnd = 1003;
    std::vector<std::atomic<int>> visits(kEnd);
    for (auto& v : visits) v = 0;
    ParallelFor(kBegin, kEnd, 8, [&](size_t begin, size_t end) {
      ASSERT_LE(begin, end);
      for (size_t i = begin; i < end; ++i) ++visits[i];
    });
    for (size_t i = 0; i < kBegin; ++i) EXPECT_EQ(visits[i].load(), 0);
    for (size_t i = kBegin; i < kEnd; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST_F(ThreadPoolTest, ChunksAreContiguousAndSizedByThreadsOrGrain) {
  SetNumThreads(4);
  const auto spans = [](size_t range, size_t grain) {
    Mutex mu;
    std::vector<std::pair<size_t, size_t>> out;
    ParallelFor(0, range, grain, [&](size_t begin, size_t end) {
      MutexLock lock(mu);
      out.push_back({begin, end});
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  // ceil(range / threads) dominates: four chunks of 1,024.
  using Spans = std::vector<std::pair<size_t, size_t>>;
  EXPECT_EQ(spans(1 << 12, 16),
            (Spans{{0, 1024}, {1024, 2048}, {2048, 3072}, {3072, 4096}}));
  // The grain dominates: 100 elements at grain 60 are chunks of 60 and 40.
  EXPECT_EQ(spans(100, 60), (Spans{{0, 60}, {60, 100}}));
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1 << 12, 1,
                  [&](size_t begin, size_t) {
                    if (begin == 0) throw std::runtime_error("chunk failure");
                  }),
      std::runtime_error);
  // The pool survives a failed batch and keeps scheduling new ones.
  std::atomic<size_t> total{0};
  ParallelFor(0, 100, 1, [&](size_t begin, size_t end) {
    total += end - begin;
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInline) {
  SetNumThreads(4);
  std::atomic<size_t> inner_total{0};
  ParallelFor(0, 256, 1, [&](size_t begin, size_t end) {
    // A nested region must not deadlock on the shared pool; it degrades to
    // one serial chunk on the calling worker.
    ParallelFor(begin, end, 1, [&](size_t inner_begin, size_t inner_end) {
      EXPECT_EQ(inner_begin, begin);
      EXPECT_EQ(inner_end, end);
      inner_total += inner_end - inner_begin;
    });
  });
  EXPECT_EQ(inner_total.load(), 256u);
}

TEST_F(ThreadPoolTest, DedicatedPoolRunsAllChunks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);
  std::vector<std::atomic<int>> ran(64);
  for (auto& r : ran) r = 0;
  pool.RunChunks(64, [&](size_t chunk) { ++ran[chunk]; });
  for (size_t c = 0; c < 64; ++c) EXPECT_EQ(ran[c].load(), 1);
}

TEST_F(ThreadPoolTest, DedicatedPoolPropagatesFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.RunChunks(32,
                              [&](size_t chunk) {
                                if (chunk % 2 == 0) {
                                  throw std::runtime_error("boom");
                                }
                              }),
               std::runtime_error);
  // Reusable afterwards.
  std::atomic<int> ok{0};
  pool.RunChunks(8, [&](size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

}  // namespace
}  // namespace common
}  // namespace amalur
