#include "probe.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

namespace dopebench {
namespace {

constexpr std::size_t kCycleEntries = std::size_t{1} << 22;  // 16 MiB
constexpr int kLoads = 300000;
constexpr int kHeapOps = 400000;
constexpr std::size_t kHeapSize = 20000;
constexpr int kAllocs = 200000;
constexpr std::size_t kLiveBlocks = 4096;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

HostProbe::HostProbe() : next_(kCycleEntries) {
  // Sattolo's shuffle: a single cycle through every entry, so the loads
  // in run_s() visit the whole buffer in an order no prefetcher follows.
  for (std::size_t i = 0; i < next_.size(); ++i) {
    next_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t state = 0x5eed;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[splitmix64(state) % i]);
  }
}

double HostProbe::run_s() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;

  std::uint32_t at = 0;
  for (int i = 0; i < kLoads; ++i) {
    at = next_[at];
    acc += at;
  }

  using Event = std::pair<double, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t state = 0x9e57;
  for (int i = 0; i < kHeapOps; ++i) {
    const std::uint64_t x = splitmix64(state);
    events.emplace(static_cast<double>(x % 100000), x);
    if (events.size() > kHeapSize) {
      acc += events.top().second;
      events.pop();
    }
  }

  // Blocks live a while in a ring, as requests do, so the allocator
  // recycles them out of order.
  std::vector<std::unique_ptr<std::uint64_t[]>> live(kLiveBlocks);
  for (int i = 0; i < kAllocs; ++i) {
    auto& slot = live[splitmix64(state) % kLiveBlocks];
    if (slot) acc += slot[0];
    slot = std::make_unique<std::uint64_t[]>(4);
    slot[0] = acc ^ static_cast<std::uint64_t>(i);
  }

  sink_ += acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace dopebench
