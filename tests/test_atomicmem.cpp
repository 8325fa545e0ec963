// Tests: the real-thread backend — atomic register cells (both storage
// strategies), DirectCtx immediate awaiters, and the same coroutine
// algorithms running under genuine hardware concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "core/fetchadd_baseline.hpp"
#include "core/timestamp.hpp"
#include "native/recorder.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using atomicmem::AtomicMemory;
using atomicmem::DirectCtx;
using core::TsRecord;

TEST(AtomicMemory, InlineCellBasics) {
  AtomicMemory<std::int64_t> mem(4, 7);
  EXPECT_EQ(mem.read(2), 7);
  mem.write(2, 42);
  EXPECT_EQ(mem.read(2), 42);
  EXPECT_EQ(mem.swap(2, 43), 42);
  EXPECT_EQ(mem.read(2), 43);
  EXPECT_EQ(mem.read(0), 7);  // other registers untouched
}

TEST(AtomicMemory, PointerCellBasics) {
  AtomicMemory<TsRecord> mem(3, TsRecord::bottom());
  EXPECT_TRUE(mem.read(1).is_bottom);
  auto rec = TsRecord::make({{1, 0}}, 1);
  mem.write(1, rec);
  EXPECT_EQ(mem.read(1), rec);
  auto rec2 = TsRecord::make({{2, 0}}, 2);
  EXPECT_EQ(mem.swap(1, rec2), rec);
  EXPECT_EQ(mem.read(1), rec2);
}

TEST(AtomicMemory, PointerCellConcurrentReadersAndWriters) {
  // Hammer one record register from two writers while two readers copy it
  // out. Writer 0 installs one-id records (their id is inline), writer 1
  // installs 8-id records (each owns a heap array). A reader must always see
  // ⊥ or one of the two well-formed shapes: no torn read (ASan and TSan
  // check the same run). No node is freed while the threads run, and each
  // racing exchange must link exactly the node it displaced, so the chain
  // holds one node per write until quiesce() frees it.
  constexpr std::size_t kLongIds = 8;
  // Writer w's k-th record is <[pw.k pw.(k+1) ...], k>, 1 id long for
  // writer 0 and kLongIds long for writer 1.
  const auto length_of = [](int w) {
    return w == 0 ? std::size_t{1} : kLongIds;
  };
  AtomicMemory<TsRecord> mem(1, TsRecord::bottom());
  std::atomic<bool> stop{false};
  std::atomic<int> malformed{0};
  const auto well_formed = [&](const TsRecord& rec) {
    if (rec.is_bottom) return rec.seq.empty();
    const int w = rec.seq.empty() ? -1 : rec.seq[0].pid;
    if ((w != 0 && w != 1) || rec.rnd < 1 || rec.seq.size() != length_of(w)) {
      return false;
    }
    for (std::size_t i = 0; i < rec.seq.size(); ++i) {
      if (rec.seq[i] != core::TsId{w, static_cast<int>(rec.rnd) +
                                          static_cast<int>(i)}) {
        return false;
      }
    }
    return true;
  };
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < 2; ++w) {
      threads.emplace_back([&, w] {
        for (int k = 1; k <= 2000; ++k) {
          std::vector<core::TsId> ids;
          for (std::size_t i = 0; i < length_of(w); ++i) {
            ids.push_back({w, k + static_cast<int>(i)});
          }
          mem.write(0, TsRecord::make(ids, k));
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (!well_formed(mem.read(0))) malformed.fetch_add(1);
        }
      });
    }
    threads[0].join();
    threads[1].join();
    // The walk reads only what the joined writers linked.
    EXPECT_EQ(mem.retired_nodes(), 4000u);
    stop.store(true, std::memory_order_release);
  }
  EXPECT_EQ(malformed.load(), 0);
  EXPECT_TRUE(well_formed(mem.read(0)));
  mem.quiesce();
  EXPECT_EQ(mem.retired_nodes(), 0u);
}

TEST(DirectCtx, ImmediateAwaitersRunSynchronously) {
  AtomicMemory<std::int64_t> mem(2, 0);
  std::atomic<std::uint64_t> clock{0};
  DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
  // Run a coroutine program to completion on this thread: process 0's one
  // call of a 2-process simple-oneshot object.
  const api::ScenarioSpec spec{.n = 2};
  api::SimpleEngine engine(spec);
  native::CallArena<std::int64_t> arena;
  auto task = api::engine_program(
      ctx, &engine, api::engine_geometry<api::SimpleEngine>(spec), 0, 1,
      &arena);
  task.handle().resume();
  EXPECT_TRUE(task.done());
  std::vector<runtime::CallRecord<std::int64_t>> records;
  arena.append_to(records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ts, 1);
  EXPECT_EQ(ctx.calls_completed(), 1u);
  EXPECT_GT(ctx.my_steps(), 0u);
}

TEST(DirectCtx, RegisterOpsCountAsStepsButLeaveTheClockAlone) {
  // Only stamp() reaches the shared clock; every register op bumps this
  // process's own counter instead. The awaiters are immediately ready, so
  // each op has run by the time its call returns.
  AtomicMemory<std::int64_t> mem(2, 0);
  std::atomic<std::uint64_t> clock{0};
  DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
  EXPECT_EQ(ctx.read(0).await_resume(), 0);
  EXPECT_EQ(ctx.versioned_read(0).await_resume().version, 0u);
  ctx.write(0, 5).await_resume();
  EXPECT_EQ(ctx.swap(0, 6).await_resume(), 5);
  EXPECT_EQ(ctx.fetch_add(1, 3).await_resume(), 0);
  EXPECT_EQ(mem.read(0), 6);
  EXPECT_EQ(mem.read(1), 3);
  EXPECT_EQ(ctx.my_steps(), 5u);
  EXPECT_EQ(clock.load(), 0u);
  EXPECT_EQ(ctx.steps_now(), 0u);

  EXPECT_EQ(ctx.stamp(), 2u);  // the clock's first draw, stamped 2 * 1
  EXPECT_EQ(clock.load(), 1u);
  EXPECT_EQ(ctx.steps_now(), 1u);
  EXPECT_EQ(ctx.my_steps(), 5u);  // a stamp is not a register op
}

TEST(DirectCtx, InvocationReusesOnlyAnUntouchedFreshStamp) {
  // invocation_stamp() takes the half-step after the last fresh draw only
  // while no register op has followed that draw and no invocation has taken
  // it yet; stamp() always draws.
  AtomicMemory<std::int64_t> mem(1, 0);
  std::atomic<std::uint64_t> clock{0};
  DirectCtx<std::int64_t> ctx(&mem, 0, &clock);

  EXPECT_EQ(ctx.stamp(), 2u);
  EXPECT_EQ(ctx.invocation_stamp(), 3u);  // the half-step after 2
  EXPECT_EQ(clock.load(), 1u);            // ... with no draw
  EXPECT_EQ(ctx.invocation_stamp(), 4u);  // 2 is lent once: draw
  EXPECT_EQ(clock.load(), 2u);

  EXPECT_EQ(ctx.stamp(), 6u);  // stamp() never reuses,
  EXPECT_EQ(ctx.stamp(), 8u);  // not even an untouched draw
  EXPECT_EQ(clock.load(), 4u);

  EXPECT_EQ(ctx.stamp(), 10u);
  EXPECT_EQ(ctx.read(0).await_resume(), 0);
  EXPECT_EQ(ctx.invocation_stamp(), 12u);  // a register op followed 10
  EXPECT_EQ(clock.load(), 6u);
  EXPECT_EQ(ctx.steps_now(), 6u);  // draws, not stamps handed out
}

TEST(Threaded, SimpleOneShotPropertyUnderRealConcurrency) {
  const int n = 8;
  for (int trial = 0; trial < 20; ++trial) {
    api::EngineInstance<api::SimpleEngine> inst({.n = n},
                                                api::Backend::kNative);
    const auto stats = inst.run_native(n);
    EXPECT_EQ(stats.calls, static_cast<std::uint64_t>(n));
    const auto records = inst.records();
    ASSERT_EQ(static_cast<int>(records.size()), n);
    auto report = verify::check_timestamp_property(records, core::Compare{});
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Threaded, SqrtOneShotPropertyUnderRealConcurrency) {
  const int n = 8;
  for (int trial = 0; trial < 20; ++trial) {
    api::EngineInstance<api::SqrtEngine> inst({.n = n},
                                              api::Backend::kNative);
    const auto run = inst.run_native(n);
    EXPECT_EQ(run.calls, static_cast<std::uint64_t>(n));
    EXPECT_EQ(run.retired_nodes, 0u);  // quiesce freed the whole backlog
    const auto records = inst.records();
    ASSERT_EQ(static_cast<int>(records.size()), n);
    auto report = verify::check_timestamp_property(records, core::Compare{});
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Threaded, MaxScanLongLivedUnderRealConcurrency) {
  const int n = 4;
  const int calls = 16;
  api::EngineInstance<api::MaxscanEngine> inst(
      {.n = n, .calls_per_process = calls}, api::Backend::kNative);
  const auto stats = inst.run_native(n);
  EXPECT_EQ(stats.calls, static_cast<std::uint64_t>(n) * calls);
  // n reads + 1 write per call, whatever the interleaving: the counters the
  // workers harvest from their stack contexts must be exact.
  EXPECT_EQ(stats.ops, static_cast<std::uint64_t>(n) * calls * (n + 1));
  const auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n * calls);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto mono = verify::check_per_process_monotonicity(records, core::Compare{});
  EXPECT_TRUE(mono.ok()) << mono.to_string();
}

TEST(Reclamation, DisplacedNodesLiveUntilQuiesce) {
  // Every node-cell write displaces one node, and nothing frees it before
  // quiesce(): 10k writes over two registers leave 10k displaced nodes
  // behind the two current ones.
  using Node = atomicmem::detail::AtomicCell<TsRecord>::Node;
  AtomicMemory<TsRecord> mem(2, TsRecord::bottom());
  EXPECT_EQ(mem.retired_nodes(), 0u);
  EXPECT_EQ(mem.arena_bytes(), 2 * sizeof(Node));
  for (int k = 1; k <= 10000; ++k) {
    mem.write(k % 2, TsRecord::make({{0, k}}, k));
  }
  EXPECT_EQ(mem.retired_nodes(), 10000u);
  EXPECT_EQ(mem.arena_bytes(), 10002 * sizeof(Node));
  mem.quiesce();
  EXPECT_EQ(mem.retired_nodes(), 0u);
  EXPECT_EQ(mem.arena_bytes(), 2 * sizeof(Node));
  // The current values survive the quiesce.
  EXPECT_EQ(mem.read(0), TsRecord::make({{0, 10000}}, 10000));
  EXPECT_EQ(mem.read(1), TsRecord::make({{0, 9999}}, 9999));
}

TEST(Reclamation, InlineCellsReportZero) {
  AtomicMemory<std::int64_t> mem(4, 0);
  for (int k = 0; k < 1000; ++k) mem.write(k % 4, k);
  EXPECT_EQ(mem.retired_nodes(), 0u);
  EXPECT_EQ(mem.arena_bytes(), 0u);
}

TEST(Seqlock, LoadVersionedConsistentUnderConcurrentWriters) {
  // TSan target: 4 writers hammer one inline cell through the seqlock while
  // readers take versioned snapshots. Each writer w writes values encoding
  // (w, k) with k strictly increasing, so a torn or stale-versioned read
  // surfaces as a decoded inconsistency: versions must be monotone per
  // reader, and re-reading the same version must yield the same value.
  AtomicMemory<std::int64_t> mem(1, 0);
  constexpr int kWriters = 4;
  constexpr int kWrites = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistent{0};
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&] {
        std::uint64_t last_version = 0;
        std::int64_t last_value = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const auto v = mem.versioned_read(0);
          if (v.version < last_version) inconsistent.fetch_add(1);
          if (v.version == last_version && last_version > 0 &&
              v.value != last_value) {
            inconsistent.fetch_add(1);  // same version, different value
          }
          const std::int64_t k = v.value % (kWrites + 1);
          const std::int64_t w = v.value / (kWrites + 1);
          if (v.value != 0 && (w < 0 || w >= kWriters || k < 1)) {
            inconsistent.fetch_add(1);  // torn/out-of-universe value
          }
          last_version = v.version;
          last_value = v.value;
        }
      });
    }
    {
      std::vector<std::jthread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          for (int k = 1; k <= kWrites; ++k) {
            mem.write(0, static_cast<std::int64_t>(w) * (kWrites + 1) + k);
          }
        });
      }
    }  // writers join
    stop.store(true, std::memory_order_release);
  }
  EXPECT_EQ(inconsistent.load(), 0);
  const auto settled = mem.versioned_read(0);
  EXPECT_EQ(settled.version, static_cast<std::uint64_t>(kWriters) * kWrites);
}

TEST(FetchAdd, BaselineStrictlyIncreasing) {
  core::FetchAddTimestamp ts;
  std::vector<std::vector<std::int64_t>> per_thread(4);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < 1000; ++k) {
          per_thread[static_cast<std::size_t>(t)].push_back(ts.getts());
        }
      });
    }
  }
  // Globally: all distinct; per thread: strictly increasing.
  std::set<std::int64_t> all;
  for (const auto& v : per_thread) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_TRUE(all.insert(v[i]).second);
      if (i > 0) {
        EXPECT_LT(v[i - 1], v[i]);
      }
    }
  }
  EXPECT_EQ(all.size(), 4000u);
}

}  // namespace
