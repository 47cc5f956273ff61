#include "counting_allocator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_large_blocks{0};
std::atomic<size_t> g_blocks{0};

void* CountedAllocate(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_blocks.fetch_add(1, std::memory_order_relaxed);
    if (size >= amalur::allocation::kLargeBlock) {
      g_large_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace amalur {
namespace allocation {

void StartCounting() {
  g_blocks = 0;
  g_large_blocks = 0;
  g_counting = true;
}

Counts StopCounting() {
  g_counting = false;
  return {g_blocks.load(), g_large_blocks.load()};
}

namespace {

TEST(CountingAllocatorTest, CountsEveryBlockAndTheLargeOnes) {
  const Counts counts = CountAllocations([] {
    // Volatile writes keep the compiler from eliding either allocation.
    auto small = std::make_unique<char[]>(kLargeBlock - 1);
    auto large = std::make_unique<char[]>(kLargeBlock);
    static_cast<volatile char*>(small.get())[0] = 1;
    static_cast<volatile char*>(large.get())[0] = 1;
  });
  EXPECT_EQ(counts.blocks, 2u);
  EXPECT_EQ(counts.large_blocks, 1u);
}

}  // namespace
}  // namespace allocation
}  // namespace amalur
