// Allocation fence for latency distributions.
//
// `Percentiles` keeps its samples in fixed blocks: recording N samples
// allocates ceil(N/B) blocks plus the doublings of the small block
// table, and never copies a recorded sample (a doubling sample vector
// allocates about 2N samples' worth of bytes on the way to N). Queries
// select in place, so the only storage a percentile, min or max query
// may allocate is the index of positions already placed.
//
// This binary replaces the global allocator with a counting one, the
// same idiom as tests/obs_alloc_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

// Out of line so that no inlined `free` meets an inlined `operator new`
// of this binary's own template code (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace dope {
namespace {

struct Heap {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

Heap heap_now() {
  return {g_allocations.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

Heap heap_since(const Heap& before) {
  const Heap now = heap_now();
  return {now.allocations - before.allocations, now.bytes - before.bytes};
}

constexpr std::size_t kBlock = Percentiles::Samples::kBlockSize;

void fill(Percentiles& p, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) p.add(rng.exponential(20.0));
}

TEST(PercentilesAlloc, RecordingAllocatesOneBlockPerBlockOfSamples) {
  const Heap before = heap_now();
  Percentiles p;
  EXPECT_EQ(heap_since(before).allocations, 0u)
      << "an empty distribution holds no storage";

  constexpr std::size_t kSamples = 6 * kBlock + 3;
  fill(p, kSamples, 1);
  const Heap used = heap_since(before);
  constexpr std::uint64_t kBlocks = (kSamples + kBlock - 1) / kBlock;
  // One allocation per block, plus each doubling of the block table.
  EXPECT_GE(used.allocations, kBlocks);
  EXPECT_LE(used.allocations, kBlocks + std::bit_width(kBlocks) + 2);
  // A doubling vector allocates once per power of two up to N.
  EXPECT_LT(used.allocations, std::bit_width(kSamples));
  // No sample is ever copied: the bytes are the blocks themselves and a
  // table of block pointers far smaller than one block.
  const std::uint64_t block_bytes = kBlocks * kBlock * sizeof(double);
  EXPECT_GE(used.bytes, block_bytes);
  EXPECT_LE(used.bytes, block_bytes + 4 * kBlocks * sizeof(void*));
}

TEST(PercentilesAlloc, QueriesAllocateOnlyThePlacedIndex) {
  Percentiles p;
  fill(p, 3 * kBlock + 7, 2);

  Heap before = heap_now();
  p.mean();
  EXPECT_EQ(heap_since(before).allocations, 0u) << "mean is a division";

  // A run summary: two placed positions per rank, twelve in all.
  const auto summary = [&p] {
    p.percentile(50);
    p.percentile(90);
    p.percentile(95);
    p.percentile(99);
    p.min();
    p.max();
  };
  before = heap_now();
  summary();
  const Heap first = heap_since(before);
  EXPECT_LE(first.allocations, 6u);
  EXPECT_LE(first.bytes, 64 * sizeof(std::size_t));

  before = heap_now();
  summary();
  p.median();
  EXPECT_EQ(heap_since(before).allocations, 0u)
      << "placed ranks are read back, not selected again";

  // An add forgets the placed positions but keeps the index's capacity.
  p.add(1.0);
  before = heap_now();
  summary();
  EXPECT_EQ(heap_since(before).allocations, 0u);

  // The full sort runs in place too.
  before = heap_now();
  p.cdf_at(20.0);
  p.sorted_samples();
  summary();
  EXPECT_EQ(heap_since(before).allocations, 0u);
}

}  // namespace
}  // namespace dope
