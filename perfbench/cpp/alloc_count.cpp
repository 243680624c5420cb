#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
thread_local bool t_paused = false;

void note_allocation() {
  if (!t_paused) g_allocations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dopebench::alloc {

std::uint64_t count() { return g_allocations.load(std::memory_order_relaxed); }

Pause::Pause() : previous_(t_paused) { t_paused = true; }
Pause::~Pause() { t_paused = previous_; }

}  // namespace dopebench::alloc
