// Counting replacements of the global allocation functions, for tests that
// bound the heap allocations a code path makes (allocations_in). Include it
// from exactly one translation unit of a test binary: it replaces the
// allocation functions of the whole binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace stamped_test {

// Global allocations are counted while this is set (see allocations_in).
inline std::atomic<bool> g_count_allocations{false};
inline std::atomic<std::uint64_t> g_allocations{0};

inline void* counted_malloc(std::size_t size) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

/// Global allocations made by `body()`, on any thread.
template <class Body>
std::uint64_t allocations_in(Body&& body) {
  const std::uint64_t before = g_allocations.load();
  g_count_allocations.store(true);
  body();
  g_count_allocations.store(false);
  return g_allocations.load() - before;
}

}  // namespace stamped_test

// Every form that allocates or frees with malloc is replaced, because a
// sanitizer runtime defines each form itself and would otherwise see one
// allocator's block freed by the other. All of them stay out of line:
// inlined, g++ would see malloc() meet operator delete or free() meet
// operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  return stamped_test::counted_new(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return stamped_test::counted_new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return stamped_test::counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return stamped_test::counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
