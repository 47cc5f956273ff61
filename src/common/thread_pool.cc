#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "common/thread_annotations.h"

namespace amalur {
namespace common {

namespace {

/// Per-thread override so concurrent training runs (each scoping its own
/// `TrainRequest.num_threads`) cannot stomp each other's count or restore a
/// stale one; chunk geometry is always computed on the submitting thread, so
/// worker threads never need to see it. Process-wide configuration belongs
/// in the AMALUR_NUM_THREADS environment variable.
thread_local size_t t_num_threads_override = 0;

/// True while the current thread is executing a ParallelFor chunk; nested
/// parallel regions run serially instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

size_t HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace

size_t DefaultNumThreads() {
  static const size_t resolved = [] {
    // Read exactly once, under static-local init (thread-safe since C++11).
    const char* env = std::getenv("AMALUR_NUM_THREADS");  // NOLINT(concurrency-mt-unsafe)
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && parsed >= 1) {
        // Clamped: the global pool spawns this many workers, and a stray
        // value (say, a misplaced row count) must not exhaust the system.
        constexpr long kMaxThreads = 256;
        return static_cast<size_t>(std::min(parsed, kMaxThreads));
      }
    }
    return HardwareThreads();
  }();
  return resolved;
}

size_t NumThreads() {
  return t_num_threads_override != 0 ? t_num_threads_override
                                     : DefaultNumThreads();
}

void SetNumThreads(size_t n) { t_num_threads_override = n; }

ScopedNumThreads::ScopedNumThreads(size_t n)
    : previous_(t_num_threads_override), engaged_(n != 0) {
  if (engaged_) SetNumThreads(n);
}

ScopedNumThreads::~ScopedNumThreads() {
  if (engaged_) SetNumThreads(previous_);
}

/// Shared state of one RunChunks call; lives on the caller's stack. The
/// caller may only return (and destroy the batch) once every worker that
/// entered it has left: `done == num_chunks && active == 0`.
struct ThreadPool::Batch {
  const std::function<void(size_t)>* task = nullptr;
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};    // next chunk index to claim
  std::atomic<size_t> done{0};    // chunks finished (or skipped after failure)
  std::atomic<size_t> active{0};  // workers currently inside the batch
  std::atomic<bool> failed{false};
  Mutex mu;
  std::exception_ptr error GUARDED_BY(mu);
  CondVar finished;
};

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool* ThreadPool::Global() {
  // Leaked on purpose: the pool must survive until the last kernel call,
  // which static destruction order cannot guarantee. Sized so that raising
  // the thread count at runtime (SetNumThreads above the env default) still
  // finds enough workers.
  static ThreadPool* pool = new ThreadPool(
      std::max(DefaultNumThreads(), HardwareThreads()) - 1);
  return pool;
}

void ThreadPool::WorkChunks(Batch* batch) {
  const std::function<void(size_t)>& task = *batch->task;
  for (;;) {
    const size_t chunk = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch->num_chunks) return;
    if (!batch->failed.load(std::memory_order_relaxed)) {
      try {
        task(chunk);
      } catch (...) {
        MutexLock lock(batch->mu);
        if (!batch->error) batch->error = std::current_exception();
        batch->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->num_chunks) {
      MutexLock lock(batch->mu);
      batch->finished.NotifyAll();
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (house idiom): the analysis sees the guarded
      // reads under mu_, which a predicate lambda would hide from it.
      while (!stop_ && generation_ == seen_generation) wake_.Wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
      if (batch != nullptr) batch->active.fetch_add(1, std::memory_order_acq_rel);
    }
    if (batch == nullptr) continue;  // batch already drained and retired
    t_in_parallel_region = true;
    WorkChunks(batch);
    t_in_parallel_region = false;
    {
      MutexLock lock(batch->mu);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
      batch->finished.NotifyAll();
    }
  }
}

void ThreadPool::RunChunks(size_t num_chunks,
                           const std::function<void(size_t)>& task) {
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1 || t_in_parallel_region) {
    // Serial fallback; chunk order preserved, first failure propagates.
    // Chunks still count as a parallel region (nested calls must not
    // re-chunk: a chunk is the unit of determinism, worker or not).
    struct RegionGuard {
      bool was = t_in_parallel_region;
      RegionGuard() { t_in_parallel_region = true; }
      ~RegionGuard() { t_in_parallel_region = was; }
    } guard;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) task(chunk);
    return;
  }

  Batch batch;
  batch.task = &task;
  batch.num_chunks = num_chunks;

  MutexLock submit(submit_mu_);
  {
    MutexLock lock(mu_);
    batch_ = &batch;
    ++generation_;
  }
  wake_.NotifyAll();

  const bool was_nested = t_in_parallel_region;
  t_in_parallel_region = true;
  WorkChunks(&batch);
  t_in_parallel_region = was_nested;

  // Retire the batch before waiting so late-waking workers skip it, then
  // wait for the chunks in flight on other workers.
  {
    MutexLock lock(mu_);
    batch_ = nullptr;
  }
  std::exception_ptr error;
  {
    MutexLock lock(batch.mu);
    while (batch.done.load(std::memory_order_acquire) != batch.num_chunks ||
           batch.active.load(std::memory_order_acquire) != 0) {
      batch.finished.Wait(batch.mu);
    }
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t range = end - begin;
  const size_t threads = NumThreads();
  if (grain == 0) grain = 1;
  if (threads <= 1 || range <= grain || t_in_parallel_region) {
    fn(begin, end);
    return;
  }
  // At least two chunks: range > grain and threads >= 2.
  const size_t chunk_size = std::max(grain, (range + threads - 1) / threads);
  const size_t num_chunks = (range + chunk_size - 1) / chunk_size;
  ThreadPool::Global()->RunChunks(num_chunks, [&](size_t chunk) {
    const size_t chunk_begin = begin + chunk * chunk_size;
    fn(chunk_begin, std::min(end, chunk_begin + chunk_size));
  });
}

}  // namespace common
}  // namespace amalur
