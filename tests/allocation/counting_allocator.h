#pragma once

#include <cstddef>

/// \file counting_allocator.h
/// The allocation suite replaces the global allocation functions with
/// counting ones (counting_allocator_test.cc). Each tests/<suite>/
/// directory builds its own binary, so the replacement reaches no other
/// suite.

namespace amalur {
namespace allocation {

/// Blocks of at least this many bytes count as large.
constexpr size_t kLargeBlock = 1024;

/// Allocations requested while counting.
struct Counts {
  size_t blocks = 0;
  size_t large_blocks = 0;
  /// Bytes of the largest block.
  size_t largest = 0;
};

/// Zeroes the counters and starts counting.
void StartCounting();
/// Stops counting and returns what was requested since `StartCounting`.
Counts StopCounting();

/// Allocations made by `fn`.
template <typename Fn>
Counts CountAllocations(Fn fn) {
  StartCounting();
  fn();
  return StopCounting();
}

}  // namespace allocation
}  // namespace amalur
