// Heap-allocation counter for the benchmark binary.
//
// alloc_count.cpp replaces the global `operator new` with one that counts
// every call made while counting is not paused on the calling thread. The
// traced mirror reads it around set-up and the stepping loop, and pauses
// it while growing its own sample buffers, so the counts are the
// simulator's allocations only. They repeat exactly for one seed.
#pragma once

#include <cstdint>

namespace dopebench::alloc {

/// Allocations counted so far (all threads).
std::uint64_t count();

/// Stops counting on this thread for the guard's lifetime.
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  bool previous_;
};

}  // namespace dopebench::alloc
