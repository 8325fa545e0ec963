// NativeSystem: the repo's second execution engine.
//
// The simulator (runtime::System<V>) interleaves coroutine steps under a
// deterministic scheduler; NativeSystem runs the SAME coroutine programs on
// a pool of real OS threads over atomicmem::AtomicMemory<V>. Because
// DirectCtx's awaiters are immediately ready, a program resumed once runs to
// completion synchronously on its worker thread — every co_await compiles
// down to an atomic register operation, so the execution is a genuine
// hardware-speed concurrent history, scheduled by the OS and the memory
// system rather than by us.
//
// Correctness transfers by post-hoc checking (the Haldar–Vitányi move:
// validate the recorded history, not the scheduler): programs record each
// completed call into a native::HistoryRecorder arena, with unique
// invocation and response stamps from the one shared seq_cst clock, and
// the merged log feeds the exact same property checkers as simulated runs.
// Register ops do not tick that clock, and a call after a process's first
// draws only its response: its invocation takes the half-step after the
// previous response (DirectCtx::invocation_stamp). The stamps alone order
// the history.
// NativeSystem itself is policy-free — it holds one program factory and a
// process count, maps the P processes onto W workers (work claimed off an
// atomic counter, so W < P just serializes some processes per worker), has
// each claimed process's program built by the factory on its worker, waits
// for every program to finish, quiesces the memory (frees the record nodes
// its writes displaced), and reports RunStats. Nothing is built per process
// ahead of the run: a program is a coroutine frame, made and freed on the
// worker that runs it (runtime/frame_cache.hpp reuses it there).
//
// Workers: the calling thread is worker 0 and starts claiming at once; the
// other W-1 are spawned. run() waits for programs, not threads: on a
// virtual machine the vCPU woken for a new thread can take milliseconds to
// come up, and a worker that arrives after the last claim only touches the
// shared claim counters on its way out. A later run() joins it, or the
// process does at exit (detail::Stragglers).
//
// Layout: the clock and the claim counters each sit alone on a 128-byte
// line pair, and a worker builds each claimed process's DirectCtx on its
// own stack, so the op counter it bumps on every register op shares no line
// with another thread's. The ctx's counters go to a per-process result slot
// once the program finishes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "atomicmem/atomic_memory.hpp"
#include "native/run_stats.hpp"
#include "runtime/coro.hpp"
#include "util/assert.hpp"

namespace stamped::native {

namespace detail {

/// A T alone on whichever 128-byte line pair it lands on: a pair less
/// alignof(T) of padding before it and a pair less sizeof(T) after keep
/// every neighbour off that pair, without over-aligning the owner (which
/// would send the owner's allocation through aligned new).
template <class T>
struct Isolated {
  static_assert(sizeof(T) <= atomicmem::kLinePair);
  std::byte before[atomicmem::kLinePair - alignof(T)];
  T value{};
  std::byte after[atomicmem::kLinePair - sizeof(T)];
};

/// The stamp clock, which a worker RMWs for every response and for every
/// invocation that cannot take a half-step (DirectCtx::invocation_stamp).
using StampClock = Isolated<std::atomic<std::uint64_t>>;

/// How the workers of one run share out the programs: the next unclaimed
/// process, how many have not finished yet, and how many spawned workers
/// are done with the run.
struct Claims {
  std::atomic<int> next{0};
  std::atomic<int> unfinished{0};
  std::atomic<int> done_workers{0};
};

// Layout guard: the value may start up to a pair less alignof(T) past a
// pair boundary, and no neighbour may reach into that pair.
template <class T>
inline constexpr bool kIsolated =
    offsetof(Isolated<T>, value) >= atomicmem::kLinePair - alignof(T) &&
    sizeof(Isolated<T>) - offsetof(Isolated<T>, value) >= atomicmem::kLinePair;
static_assert(kIsolated<std::atomic<std::uint64_t>>,
              "the stamp clock must own its line pair");
static_assert(kIsolated<Claims>, "the claim counters must own their line pair");

/// The spawned workers of finished runs. run() waits for programs, not for
/// threads, so it hands its workers over here together with their claim
/// counters (all a worker touches once the run's programs are done); a
/// later run() joins a run's workers once they are all done, and any left
/// are joined at exit.
class Stragglers {
 public:
  using SharedClaims = std::shared_ptr<const Isolated<Claims>>;

  static void adopt(std::vector<std::jthread> workers, SharedClaims claims) {
    if (workers.empty()) return;
    Stragglers& s = instance();
    const std::lock_guard<std::mutex> lock(s.mu_);
    s.runs_.push_back({std::move(workers), std::move(claims)});
  }

  /// Joins the workers of every run whose workers are all done.
  static void reap() {
    Stragglers& s = instance();
    const std::lock_guard<std::mutex> lock(s.mu_);
    std::erase_if(s.runs_, [](const Run& r) {
      return r.claims->value.done_workers.load(std::memory_order_acquire) ==
             static_cast<int>(r.workers.size());
    });  // ~jthread joins
  }

 private:
  struct Run {
    std::vector<std::jthread> workers;
    SharedClaims claims;
  };

  static Stragglers& instance() {
    static Stragglers s;
    return s;
  }

  std::mutex mu_;
  std::vector<Run> runs_;
};

}  // namespace detail

/// Runs `processes` programs on a pool of real threads, process p's built by
/// make_task(ctx, p) on the worker that claims p. Single-use: build, run
/// once, harvest the recorder. The memory lives here; programs reach it
/// through the per-process DirectCtx their worker builds when it claims
/// them.
template <class V>
class NativeSystem {
 public:
  using Ctx = atomicmem::DirectCtx<V>;
  using Factory = std::function<runtime::ProcessTask(Ctx&, int pid)>;

  NativeSystem(int num_registers, const V& initial, int processes,
               Factory make_task)
      : mem_(num_registers, initial),
        make_task_(std::move(make_task)),
        processes_(processes) {
    STAMPED_ASSERT_MSG(processes_ > 0,
                       "a native run needs at least one process");
  }

  [[nodiscard]] atomicmem::AtomicMemory<V>& memory() { return mem_; }
  [[nodiscard]] int num_processes() const { return processes_; }

  /// Executes every program to completion on `threads` workers (0 = hardware
  /// concurrency; requests are honored even beyond the core count — the OS
  /// time-slices, which is exactly the adversary we want — but never more
  /// workers than programs). The calling thread is worker 0; the others are
  /// spawned and claim programs as soon as they come up. run() returns once
  /// every program has finished, without waiting for a worker that came up
  /// too late to claim one: such a worker touches only the shared claim
  /// counters, and a later run() (or the process, at exit) joins it.
  /// Rethrows the first program exception after that. Single-use.
  RunStats run(int threads = 0) {
    STAMPED_ASSERT_MSG(!ran_, "NativeSystem::run is single-use");
    ran_ = true;

    const int n = num_processes();
    int pool = threads;
    if (pool <= 0) {
      pool = static_cast<int>(std::thread::hardware_concurrency());
      if (pool < 1) pool = 1;
    }
    if (pool > n) pool = n;

    // Written once per process, by the worker that ran it, after its
    // program finished.
    struct Outcome {
      std::uint64_t ops = 0;
      std::uint64_t calls = 0;
      int worker = 0;
      std::exception_ptr error;
    };
    std::vector<Outcome> outcomes(static_cast<std::size_t>(n));
    // Shared with the spawned workers, which may outlive this call.
    const auto claims = std::make_shared<detail::Isolated<detail::Claims>>();
    claims->value.unfinished.store(n, std::memory_order_relaxed);

    // Worker w runs claimed programs until none is left. Nothing escapes a
    // claim, so every claimed program is counted finished. The references
    // into this frame are followed only for a claimed program, which run()
    // waits for; after its last one a worker touches nothing but `c`.
    const auto work = [this, n, &outcomes](detail::Claims& c, int w) {
      for (int p; (p = c.next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        Outcome& out = outcomes[static_cast<std::size_t>(p)];
        out.worker = w;
        try {
          // One ctx per process (not per worker): its counters are
          // per-process facts. The task's frame refers to the ctx, so the
          // task is declared after it and destroyed first.
          Ctx ctx(&mem_, p, &clock_.value);
          runtime::ProcessTask task = make_task_(ctx, p);
          task.handle().resume();
          // Immediately-ready awaiters: one resume runs the whole program.
          STAMPED_ASSERT_MSG(task.done(),
                             "native program suspended; DirectCtx awaiters "
                             "must be immediately ready");
          out.ops = ctx.my_steps();
          out.calls = ctx.calls_completed();
          out.error = task.exception();
        } catch (...) {
          out.error = std::current_exception();
        }
        if (c.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          c.unfinished.notify_one();
        }
      }
    };

    detail::Stragglers::reap();  // earlier runs' workers, if all done
    const auto started = std::chrono::steady_clock::now();
    std::vector<std::jthread> workers;
    std::exception_ptr spawn_error;
    try {
      workers.reserve(static_cast<std::size_t>(pool - 1));
      for (int w = 1; w < pool; ++w) {
        workers.emplace_back([work, claims, w] {
          work(claims->value, w);
          claims->value.done_workers.fetch_add(1, std::memory_order_release);
        });
      }
    } catch (...) {
      // The workers already up and this thread still finish every program
      // (they refer to this frame) before the error propagates.
      spawn_error = std::current_exception();
    }
    work(claims->value, 0);
    for (int left; (left = claims->value.unfinished.load(
                        std::memory_order_acquire)) != 0;) {
      claims->value.unfinished.wait(left, std::memory_order_acquire);
    }
    const auto finished = std::chrono::steady_clock::now();
    detail::Stragglers::adopt(std::move(workers), claims);
    if (spawn_error) std::rethrow_exception(spawn_error);

    for (const Outcome& out : outcomes) {
      if (out.error) std::rethrow_exception(out.error);
    }

    // The run's quiesce point: every program has finished, so no thread
    // reads or writes this memory any more — free every displaced node.
    mem_.quiesce();

    RunStats stats;
    stats.threads = pool;
    stats.elapsed_seconds =
        std::max(std::chrono::duration<double>(finished - started).count(),
                 kMinElapsedSeconds);
    stats.per_thread_calls.assign(static_cast<std::size_t>(pool), 0);
    for (const Outcome& out : outcomes) {
      stats.ops += out.ops;
      stats.calls += out.calls;
      stats.per_thread_calls[static_cast<std::size_t>(out.worker)] += out.calls;
    }
    stats.retired_nodes = mem_.retired_nodes();
    stats.memory_arena_bytes = mem_.arena_bytes();
    return stats;
  }

 private:
  atomicmem::AtomicMemory<V> mem_;
  Factory make_task_;
  int processes_;
  detail::StampClock clock_;
  bool ran_ = false;
};

}  // namespace stamped::native
