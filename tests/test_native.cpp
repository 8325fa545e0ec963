// Tests: the native multicore backend — the lock-free history recorder, the
// NativeSystem thread pool, and the harness integration that checks recorded
// native histories with the same property checkers as simulated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"
#include "core/maxscan_longlived.hpp"
#include "core/sqrt_oneshot.hpp"
#include "core/timestamp.hpp"
#include "native/native_system.hpp"
#include "native/recorder.hpp"
#include "runtime/coro.hpp"
#include "util/assert.hpp"

namespace {

using namespace stamped;
using native::CallArena;
using native::HistoryRecorder;
using native::NativeSystem;

TEST(Recorder, ArenaCrossesBlockBoundaries) {
  CallArena<std::int64_t> arena;
  const std::size_t total =
      3 * CallArena<std::int64_t>::kMaxBlockRecords + 17;
  for (std::size_t k = 0; k < total; ++k) {
    arena.record({0, static_cast<int>(k), static_cast<std::int64_t>(k),
                  2 * k + 1, 2 * k + 2});
  }
  EXPECT_EQ(arena.size(), total);
  EXPECT_EQ(arena.bytes() % sizeof(runtime::CallRecord<std::int64_t>), 0u);
  EXPECT_GT(arena.bytes(), 0u);
  std::vector<runtime::CallRecord<std::int64_t>> out;
  arena.append_to(out);
  ASSERT_EQ(out.size(), total);
  for (std::size_t k = 0; k < total; ++k) {
    EXPECT_EQ(out[k].ts, static_cast<std::int64_t>(k));
  }
}

TEST(Recorder, BlocksGrowFromOneRecord) {
  // A one-call process (every process of a one-shot run) costs one record;
  // capacities double from there, so a long arena wastes at most one
  // full-size block.
  using Record = CallArena<std::int64_t>::Record;
  CallArena<std::int64_t> arena;
  EXPECT_EQ(arena.bytes(), 0u);
  arena.record({0, 0, 0, 1, 2});
  EXPECT_EQ(arena.bytes(), sizeof(Record));
  arena.record({0, 1, 1, 3, 4});
  arena.record({0, 2, 2, 5, 6});
  EXPECT_EQ(arena.bytes(), 3 * sizeof(Record));  // blocks of 1 and 2
  for (std::uint64_t k = 3; k < 10000; ++k) {
    arena.record({0, static_cast<int>(k), static_cast<std::int64_t>(k),
                  2 * k + 1, 2 * k + 2});
  }
  EXPECT_EQ(arena.size(), 10000u);
  EXPECT_LT(arena.bytes(), (arena.size() + CallArena<std::int64_t>::
                                               kMaxBlockRecords) *
                               sizeof(Record));
}

TEST(Recorder, MergeSortsByCompletionStamp) {
  // Two arenas with interleaved completion stamps; merged() must produce the
  // stamp-sorted total order regardless of arena boundaries.
  HistoryRecorder<std::int64_t> rec(2);
  rec.arena(0).record({0, 0, 10, 1, 4});
  rec.arena(0).record({0, 1, 11, 5, 8});
  rec.arena(1).record({1, 0, 20, 2, 3});
  rec.arena(1).record({1, 1, 21, 6, 7});
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].responded_at, merged[i].responded_at);
  }
  EXPECT_EQ(merged[0].ts, 20);
  EXPECT_EQ(merged[1].ts, 10);
  EXPECT_EQ(merged[2].ts, 21);
  EXPECT_EQ(merged[3].ts, 11);
  EXPECT_EQ(rec.size(), 4u);
  const auto counts = rec.per_arena_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(NativeSystem, FewerThreadsThanProcesses) {
  // 8 programs on 3 workers: the pool serializes some programs per worker;
  // every program still runs and per_thread_calls accounts for all of them.
  const int n = 8;
  const int calls = 5;
  HistoryRecorder<std::int64_t> rec(n);
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  for (int p = 0; p < n; ++p) {
    auto* arena = &rec.arena(p);
    programs.push_back(
        [p, n, calls, arena](atomicmem::DirectCtx<std::int64_t>& ctx) {
          return core::maxscan_program(ctx, p, n, calls, arena);
        });
  }
  NativeSystem<std::int64_t> sys(n, 0, std::move(programs));
  const auto stats = sys.run(3);
  EXPECT_EQ(stats.threads, 3);
  EXPECT_EQ(stats.calls, static_cast<std::uint64_t>(n) * calls);
  ASSERT_EQ(stats.per_thread_calls.size(), 3u);
  const std::uint64_t sum = std::accumulate(stats.per_thread_calls.begin(),
                                            stats.per_thread_calls.end(),
                                            std::uint64_t{0});
  EXPECT_EQ(sum, stats.calls);
  EXPECT_EQ(rec.size(), static_cast<std::size_t>(n) * calls);
}

/// Every invocation and response stamp of `calls`, sorted.
template <class Ts>
std::vector<std::uint64_t> sorted_stamps(
    const std::vector<runtime::CallRecord<Ts>>& calls) {
  std::vector<std::uint64_t> stamps;
  for (const auto& c : calls) {
    stamps.push_back(c.invoked_at);
    stamps.push_back(c.responded_at);
  }
  std::sort(stamps.begin(), stamps.end());
  return stamps;
}

/// 1, 2, ..., 2 * calls: one invocation and one response stamp per call.
std::vector<std::uint64_t> call_events(std::size_t calls) {
  std::vector<std::uint64_t> events(2 * calls);
  std::iota(events.begin(), events.end(), std::uint64_t{1});
  return events;
}

TEST(NativeSystem, StampsAreExactlyTheCallEventsOnMaxScan) {
  // Register ops never tick the shared clock, so C calls draw exactly the
  // stamps 1..2C. A per-op tick would leave gaps of n + 1 per call.
  const int n = 4;
  const int calls = 500;
  HistoryRecorder<std::int64_t> rec(n);
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  for (int p = 0; p < n; ++p) {
    auto* arena = &rec.arena(p);
    programs.push_back(
        [p, n, calls, arena](atomicmem::DirectCtx<std::int64_t>& ctx) {
          return core::maxscan_program(ctx, p, n, calls, arena);
        });
  }
  NativeSystem<std::int64_t> sys(n, 0, std::move(programs));
  const auto stats = sys.run(n);
  const std::size_t total = static_cast<std::size_t>(n) * calls;
  EXPECT_EQ(stats.calls, total);
  EXPECT_EQ(sorted_stamps(rec.merged()), call_events(total));
}

TEST(NativeSystem, StampsAreExactlyTheCallEventsOnSqrtOneShot) {
  // Algorithm 4 on node cells, with scans: the stamps are still exactly the
  // 2 per call, however many register ops each call made.
  const int n = 64;
  const int m = core::sqrt_oneshot_registers(n);
  HistoryRecorder<core::PairTimestamp> rec(n);
  std::vector<NativeSystem<core::TsRecord>::Program> programs;
  for (int p = 0; p < n; ++p) {
    auto* arena = &rec.arena(p);
    programs.push_back(
        [p, m, arena](atomicmem::DirectCtx<core::TsRecord>& ctx) {
          return core::sqrt_getts_program(ctx, core::TsId{p, 0}, m, arena,
                                          nullptr);
        });
  }
  NativeSystem<core::TsRecord> sys(m, core::TsRecord::bottom(),
                                   std::move(programs));
  const auto stats = sys.run(4);
  EXPECT_EQ(stats.calls, static_cast<std::uint64_t>(n));
  EXPECT_EQ(sorted_stamps(rec.merged()),
            call_events(static_cast<std::size_t>(n)));
}

TEST(NativeSystem, RateMathStaysFiniteOnDegenerateRuns) {
  // A one-program one-call run can finish inside a steady_clock tick;
  // elapsed_seconds is clamped so ops/sec never goes inf or garbage.
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  programs.push_back([](atomicmem::DirectCtx<std::int64_t>& ctx) {
    return core::maxscan_program(
        ctx, 0, 1, 1, static_cast<runtime::CallLog<std::int64_t>*>(nullptr));
  });
  NativeSystem<std::int64_t> sys(1, 0, std::move(programs));
  const auto stats = sys.run(1);
  EXPECT_GE(stats.elapsed_seconds, native::kMinElapsedSeconds);
  EXPECT_TRUE(std::isfinite(stats.ops_per_sec()));
  EXPECT_TRUE(std::isfinite(stats.calls_per_sec()));

  // The rate helpers clamp even a hand-built zero-elapsed RunStats, so
  // consumers that fill the struct themselves get the same guarantee.
  native::RunStats zero;
  zero.ops = 1000;
  zero.calls = 10;
  zero.elapsed_seconds = 0.0;
  EXPECT_TRUE(std::isfinite(zero.ops_per_sec()));
  EXPECT_TRUE(std::isfinite(zero.calls_per_sec()));
  EXPECT_DOUBLE_EQ(zero.ops_per_sec(), 1000.0 / native::kMinElapsedSeconds);
}

TEST(NativeSystem, CallingThreadIsWorkerZero) {
  // One worker spawns nothing: every program runs on the calling thread.
  const int n = 3;
  const int calls = 2;
  std::vector<std::thread::id> ran_on(n);
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  for (int p = 0; p < n; ++p) {
    programs.push_back(
        [p, n, calls, &ran_on](atomicmem::DirectCtx<std::int64_t>& ctx) {
          ran_on[static_cast<std::size_t>(p)] = std::this_thread::get_id();
          return core::maxscan_program(
              ctx, p, n, calls,
              static_cast<runtime::CallLog<std::int64_t>*>(nullptr));
        });
  }
  NativeSystem<std::int64_t> sys(n, 0, std::move(programs));
  const auto stats = sys.run(1);
  EXPECT_EQ(stats.threads, 1);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(stats.per_thread_calls,
            std::vector<std::uint64_t>{static_cast<std::uint64_t>(n) * calls});
}

TEST(NativeSystem, ManyShortRunsAccountForEveryCall) {
  // Short runs on more workers than a spawned thread needs to come up:
  // run() returns once every program finished, and a worker that arrives
  // after the last claim must neither run a program twice nor touch the
  // finished system (TSan checks the second part in CI).
  const int n = 16;
  for (int round = 0; round < 100; ++round) {
    HistoryRecorder<std::int64_t> rec(n);
    std::vector<NativeSystem<std::int64_t>::Program> programs;
    for (int p = 0; p < n; ++p) {
      auto* arena = &rec.arena(p);
      programs.push_back(
          [p, n, arena](atomicmem::DirectCtx<std::int64_t>& ctx) {
            return core::maxscan_program(ctx, p, n, 1, arena);
          });
    }
    NativeSystem<std::int64_t> sys(n, 0, std::move(programs));
    const auto stats = sys.run(8);
    ASSERT_EQ(stats.calls, static_cast<std::uint64_t>(n)) << "round " << round;
    ASSERT_EQ(stats.per_thread_calls.size(), 8u);
    ASSERT_EQ(std::accumulate(stats.per_thread_calls.begin(),
                              stats.per_thread_calls.end(), std::uint64_t{0}),
              stats.calls);
    ASSERT_EQ(rec.per_arena_counts(),
              std::vector<std::uint64_t>(static_cast<std::size_t>(n), 1));
  }
}

runtime::ProcessTask failing_program(atomicmem::DirectCtx<std::int64_t>& ctx) {
  (void)co_await ctx.read(0);
  throw std::runtime_error("program failed");
}

TEST(NativeSystem, ProgramExceptionPropagatesAfterEveryProgramFinishes) {
  // The failing program's worker goes on claiming, and run() rethrows only
  // once every other program has finished (they refer to its frame).
  const int n = 6;
  const int calls = 50;
  HistoryRecorder<std::int64_t> rec(n);
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  for (int p = 0; p < n; ++p) {
    auto* arena = &rec.arena(p);
    programs.push_back(
        [p, n, calls, arena](atomicmem::DirectCtx<std::int64_t>& ctx) {
          return p == 2 ? failing_program(ctx)
                        : core::maxscan_program(ctx, p, n, calls, arena);
        });
  }
  NativeSystem<std::int64_t> sys(n, 0, std::move(programs));
  EXPECT_THROW((void)sys.run(3), std::runtime_error);
  EXPECT_EQ(rec.size(), static_cast<std::size_t>(n - 1) * calls);
}

TEST(NativeSystem, RunIsSingleUse) {
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  programs.push_back([](atomicmem::DirectCtx<std::int64_t>& ctx) {
    return core::maxscan_program(
        ctx, 0, 1, 1, static_cast<runtime::CallLog<std::int64_t>*>(nullptr));
  });
  NativeSystem<std::int64_t> sys(1, 0, std::move(programs));
  (void)sys.run(1);
  EXPECT_THROW((void)sys.run(1), stamped::invariant_error);
}

/// The lowest and highest frame addresses a probe has seen.
struct FrameSpan {
  std::uintptr_t lo = UINTPTR_MAX;
  std::uintptr_t hi = 0;
};

[[gnu::noinline]] void record_frame(FrameSpan& span) {
  const auto addr =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  span.lo = std::min(span.lo, addr);
  span.hi = std::max(span.hi, addr);
}

runtime::SubTask<std::int64_t> probed_read(
    atomicmem::DirectCtx<std::int64_t>& ctx, FrameSpan& span) {
  const std::int64_t v = co_await ctx.read(0);
  record_frame(span);
  co_return v;
}

runtime::ProcessTask probed_reads(atomicmem::DirectCtx<std::int64_t>& ctx,
                                  int count, FrameSpan& span) {
  for (int k = 0; k < count; ++k) (void)co_await probed_read(ctx, span);
}

TEST(NativeSystem, StackStaysFlatAcrossSubTasks) {
  // No native awaiter suspends, so every subtask starts and finishes inside
  // its process's one resume. The stack must not grow with the number of
  // subtasks awaited: only a tail call would hide such growth, and an
  // unoptimized build makes none.
  FrameSpan span;
  std::vector<NativeSystem<std::int64_t>::Program> programs;
  programs.push_back([&span](atomicmem::DirectCtx<std::int64_t>& ctx) {
    return probed_reads(ctx, 20000, span);
  });
  NativeSystem<std::int64_t> sys(1, 0, std::move(programs));
  (void)sys.run(1);
  ASSERT_LE(span.lo, span.hi);
  EXPECT_LT(span.hi - span.lo, std::uintptr_t{64} * 1024)
      << "the stack grew by " << span.hi - span.lo << " bytes";
}

TEST(Harness, BackendAndSourceMustAgree) {
  const auto& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 2;
  // Native spec under a simulator source.
  spec.backend = api::Backend::kNative;
  EXPECT_THROW((void)api::Harness{}.run_scenario(fam, spec, api::round_robin()),
               stamped::invariant_error);
  // Simulator spec under the native source.
  spec.backend = api::Backend::kSim;
  EXPECT_THROW((void)api::Harness{}.run_scenario(fam, spec, api::native_os()),
               stamped::invariant_error);
}

TEST(Harness, NativeReportCarriesRunStats) {
  const auto& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 8;
  spec.calls_per_process = 10;
  spec.backend = api::Backend::kNative;
  spec.native_threads = 4;
  const auto rep =
      api::Harness{}.run_scenario(fam, spec, api::native_os());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(rep.all_finished);
  EXPECT_EQ(rep.schedule, "native-os");
  EXPECT_EQ(rep.calls, static_cast<std::uint64_t>(spec.total_calls()));
  EXPECT_EQ(rep.native_threads, 4);
  // Max-scan is scan-free: n reads + 1 write + n registers => deterministic
  // op count n*calls*(n+1) regardless of the interleaving.
  EXPECT_EQ(rep.steps, static_cast<std::uint64_t>(spec.n) *
                           spec.calls_per_process * (spec.n + 1));
  ASSERT_EQ(rep.native_thread_calls.size(), 4u);
  EXPECT_EQ(std::accumulate(rep.native_thread_calls.begin(),
                            rep.native_thread_calls.end(), std::uint64_t{0}),
            rep.calls);
  EXPECT_GT(rep.recorder_arena_bytes, 0u);
  EXPECT_EQ(rep.retired_nodes, 0u);  // int64 registers: inline cells
  EXPECT_GE(rep.native_elapsed_seconds, 0.0);
  EXPECT_FALSE(rep.summary().empty());
}

TEST(Harness, EveryFamilyRunsNativeAndPassesCheckers) {
  // The acceptance bar in one test: all six families on >= 4 real threads,
  // recorded histories through the same checkers as simulated runs.
  for (const auto& fam : api::registry()) {
    ASSERT_NE(fam.make_native, nullptr) << fam.name;
    api::ScenarioSpec spec;
    spec.n = 8;
    spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 6;
    spec.backend = api::Backend::kNative;
    spec.native_threads = 4;
    const auto rep =
        api::Harness{}.run_scenario(fam, spec, api::native_os());
    EXPECT_TRUE(rep.ok()) << fam.name << ": " << rep.summary();
    EXPECT_TRUE(rep.all_finished) << fam.name;
    EXPECT_EQ(rep.calls, static_cast<std::uint64_t>(spec.total_calls()))
        << fam.name;
    EXPECT_EQ(rep.native_threads, 4) << fam.name;
    EXPECT_EQ(rep.retired_nodes, 0u) << fam.name;  // clean quiesce
  }
}

}  // namespace
