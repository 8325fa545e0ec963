// Per-thread reuse of coroutine frames.
//
// Every getTS call awaits at least one SubTask and every process runs one
// ProcessTask, so the backends allocate and free a coroutine frame per call
// and per process. The promises of both task types (runtime/coro.hpp)
// derive from CachedFrame, so they allocate through FrameCache instead: a
// freed frame stays in a small cache of the thread that freed it and serves
// that thread's next frame of exactly its size. A long-lived process
// allocates its frames on its first call only, and the processes a native
// worker runs in turn reuse one another's.
//
//   - Exact size: every frame of one coroutine function has one size, so a
//     hit reuses a frame of the same function and wastes no space.
//   - At most kSlots frames per thread. A miss, and a free that finds the
//     cache full, go through ::operator new / ::operator delete, so replaced
//     global allocation functions and sanitizers see them.
//   - A frame may be freed on any thread; it joins that thread's cache.
//     Each thread touches only its own cache, so nothing here is shared.
//   - When a thread exits (the main thread: before static destruction), its
//     cache frees its frames and closes. A frame freed after that, by a
//     later thread_local or static destructor, goes straight to the heap.
//   - Under AddressSanitizer a cached frame is poisoned, so a use of a
//     destroyed coroutine's frame is still reported.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define STAMPED_FRAME_CACHE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STAMPED_FRAME_CACHE_ASAN 1
#endif
#endif
#ifdef STAMPED_FRAME_CACHE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace stamped::runtime {

class FrameCache {
 public:
  /// Freed frames one thread keeps at most.
  static constexpr std::size_t kSlots = 16;

  /// A frame of `size` bytes: the calling thread's most recently cached one
  /// of that size, or a fresh one from ::operator new.
  [[nodiscard]] static void* allocate(std::size_t size) {
    Cache& c = cache();
    for (std::size_t i = c.count; i-- > 0;) {
      if (c.slots[i].size == size) {
        void* frame = c.slots[i].frame;
        c.slots[i] = c.slots[--c.count];
        unpoison(frame, size);
        return frame;
      }
    }
    return ::operator new(size);
  }

  /// Takes back a frame that allocate(size) returned, on any thread.
  static void release(void* frame, std::size_t size) noexcept {
    Cache& c = cache();
    if (c.closed || c.count == kSlots) {
      ::operator delete(frame, size);
      return;
    }
    if (!c.armed) arm(c);
    poison(frame, size);
    c.slots[c.count++] = {frame, size};
  }

 private:
  struct Slot {
    void* frame = nullptr;
    std::size_t size = 0;
  };

  /// Constant-initialized and trivially destructible, so a thread's cache
  /// needs no guard on access and stays readable through every thread_local
  /// destructor of its thread (closed tells them it is gone).
  struct Cache {
    Slot slots[kSlots]{};
    std::size_t count = 0;
    bool armed = false;   ///< the thread-exit drain is registered
    bool closed = false;  ///< the drain has run
  };

  /// Frees the calling thread's cached frames when the thread exits.
  struct Drain {
    Drain() = default;
    Drain(const Drain&) = delete;
    Drain& operator=(const Drain&) = delete;
    ~Drain() {
      Cache& c = cache();
      c.closed = true;
      while (c.count > 0) {
        const Slot s = c.slots[--c.count];
        unpoison(s.frame, s.size);
        ::operator delete(s.frame, s.size);
      }
    }
  };

  static Cache& cache() noexcept {
    static thread_local constinit Cache c;
    return c;
  }

  /// Registers the drain, once per thread that caches a frame.
  static void arm(Cache& c) noexcept {
    static thread_local Drain drain;
    c.armed = true;
  }

  static void poison(void* frame, std::size_t size) noexcept {
#ifdef STAMPED_FRAME_CACHE_ASAN
    ASAN_POISON_MEMORY_REGION(frame, size);
#else
    (void)frame;
    (void)size;
#endif
  }

  static void unpoison(void* frame, std::size_t size) noexcept {
#ifdef STAMPED_FRAME_CACHE_ASAN
    ASAN_UNPOISON_MEMORY_REGION(frame, size);
#else
    (void)frame;
    (void)size;
#endif
  }
};

/// Base of a coroutine promise whose frames come from FrameCache.
struct CachedFrame {
  static void* operator new(std::size_t size) {
    return FrameCache::allocate(size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FrameCache::release(frame, size);
  }
};

}  // namespace stamped::runtime
