#pragma once

#include <cstddef>
#include <functional>

/// \file parallel_for.h
/// The lightweight face of the parallel execution runtime: thread-count
/// resolution and the `ParallelFor` primitive every kernel fans out with.
/// Headers that only need to *dispatch* parallel loops (e.g. the matrix
/// templates) include this; the pool itself — and its <thread>/<mutex>
/// baggage — lives in thread_pool.h.
///
/// Thread count resolution, in priority order:
///   1. `SetNumThreads(n)` / `ScopedNumThreads` (the facade's
///      `TrainRequest.num_threads` knob lands here),
///   2. the `AMALUR_NUM_THREADS` environment variable,
///   3. `std::thread::hardware_concurrency()`.
/// A count of 1 disables parallelism cleanly: every `ParallelFor` degenerates
/// to the caller running the whole range serially, recovering the exact
/// pre-runtime semantics.
///
/// Determinism contract: each chunk writes memory no other chunk touches,
/// and no caller merges per-chunk partial results. Every output element is
/// then computed by one chunk, in the order the serial loop computes it, so
/// every result is bitwise-equal to the serial result at any thread count.
/// A reduction whose summation order the split would change runs serially.

namespace amalur {
namespace common {

/// Worker threads this process may use, before any override: the
/// `AMALUR_NUM_THREADS` environment variable when set to a positive integer
/// (clamped to 256 so a stray value cannot exhaust the system with thread
/// spawns), otherwise `std::thread::hardware_concurrency()` (at least 1).
size_t DefaultNumThreads();

/// The currently effective thread count (override if set, else the default).
size_t NumThreads();

/// Overrides the effective thread count; 0 restores the default. The
/// override is per *calling thread* (kernels compute their chunk geometry on
/// the submitting thread), so concurrent training runs with different knobs
/// cannot interfere; process-wide configuration belongs in the
/// `AMALUR_NUM_THREADS` environment variable.
void SetNumThreads(size_t n);

/// RAII thread-count override: sets `n` (0 = leave unchanged) for the scope's
/// lifetime and restores the previous override on destruction.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  size_t previous_;
  bool engaged_;
};

/// Runs `fn(chunk_begin, chunk_end)` over a static partition of [begin, end)
/// into contiguous chunks of max(grain, ceil(range / NumThreads())) elements
/// (the last may be shorter). Runs entirely on the caller, as fn(begin, end),
/// when the effective thread count is 1, the range fits in one grain, or the
/// call is nested inside another parallel region. Empty ranges are a no-op.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace common
}  // namespace amalur
