#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/thread_annotations.h"

/// \file thread_pool.h
/// The worker pool behind `ParallelFor` (see parallel_for.h for the
/// dispatch primitives and the determinism contract). Every hot kernel
/// (dense GEMM, the factorized rewrites, gradient descent through them)
/// fans its work out over one lazily-initialized global pool.

namespace amalur {
namespace common {

/// A fixed set of worker threads executing chunk batches. Use the global
/// instance through `ParallelFor`; direct construction is for tests.
class ThreadPool {
 public:
  /// Pool with `num_workers` background threads (the submitting thread also
  /// executes chunks, so total parallelism is `num_workers + 1`).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Upper bound on concurrently executing chunks: the workers plus the
  /// submitting thread. A `NumThreads()` request above this still *chunks*
  /// for the requested count (determinism follows the request) but executes
  /// at this parallelism.
  size_t parallelism() const { return workers_.size() + 1; }

  /// Executes `task(c)` for every c in [0, num_chunks) across the workers
  /// and the calling thread; returns when all chunks finished. The first
  /// exception thrown by any chunk is rethrown on the caller (remaining
  /// chunks are skipped once a chunk has failed). Concurrent calls are
  /// serialized; a call from inside a running chunk executes inline.
  void RunChunks(size_t num_chunks, const std::function<void(size_t)>& task);

  /// The process-wide pool, created on first use with
  /// `DefaultNumThreads() - 1` workers (never destroyed: workers must not
  /// outlive-race static destruction).
  static ThreadPool* Global();

 private:
  struct Batch;

  void WorkerLoop();
  static void WorkChunks(Batch* batch);

  Mutex mu_;
  CondVar wake_;
  Batch* batch_ GUARDED_BY(mu_) = nullptr;
  /// Bumped per submitted batch.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  Mutex submit_mu_;  // serializes RunChunks callers
  std::vector<std::thread> workers_;
};

}  // namespace common
}  // namespace amalur
