// Tests: RecordingMode (kFull vs kCountsOnly), versioned reads, and the
// version-clock double collect — the hot-path runtime refactor.
//
// The contract under test: kCountsOnly runs the identical computation (same
// register contents, same counters, same call history) while retaining no
// per-step trace, views or schedule; versioned_read costs one step and its
// version equals the register's write count; the version-clock scan agrees
// with the value-comparing scan wherever writes change values.
#include <gtest/gtest.h>

#include <memory>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "core/timestamp.hpp"
#include "runtime/scheduler.hpp"
#include "snapshot/double_collect.hpp"
#include "snapshot/versioned_collect.hpp"
#include "util/rng.hpp"

namespace {

using namespace stamped;
using IntSys = runtime::System<std::int64_t>;
using Maxscan = api::EngineInstance<api::MaxscanEngine>;
using runtime::RecordingMode;

TEST(RecordingModes, CountsOnlyMatchesFullOnEveryCounter) {
  // The same schedule in both modes must produce identical register files,
  // step/call counters, write counts and versions — only the per-step
  // bookkeeping (trace, views, executed schedule) may differ.
  Maxscan full_inst({.n = 4, .calls_per_process = 3}, api::Backend::kSim);
  IntSys* full = &full_inst.sim();
  util::Rng rng(1234);
  runtime::run_random(*full, rng, 1u << 20);
  ASSERT_TRUE(full->all_finished());

  Maxscan counts_inst({.n = 4, .calls_per_process = 3}, api::Backend::kSim);
  IntSys* counts = &counts_inst.sim();
  counts->set_recording_mode(RecordingMode::kCountsOnly);
  EXPECT_EQ(counts->recording_mode(), RecordingMode::kCountsOnly);
  runtime::run_script(*counts, full->executed_schedule());
  ASSERT_TRUE(counts->all_finished());

  EXPECT_EQ(counts->steps_taken(), full->steps_taken());
  EXPECT_EQ(counts->calls_completed_total(), full->calls_completed_total());
  EXPECT_EQ(counts->registers_written(), full->registers_written());
  for (int p = 0; p < full->num_processes(); ++p) {
    EXPECT_EQ(counts->steps_taken_by(p), full->steps_taken_by(p)) << p;
    EXPECT_EQ(counts->calls_completed(p), full->calls_completed(p)) << p;
  }
  for (int r = 0; r < full->num_registers(); ++r) {
    EXPECT_EQ(counts->register_repr(r), full->register_repr(r)) << r;
    EXPECT_EQ(counts->writes_to(r), full->writes_to(r)) << r;
  }

  // kFull retains the per-step bookkeeping; kCountsOnly retains none.
  EXPECT_EQ(full->trace().size(), full->steps_taken());
  EXPECT_FALSE(full->process_view(0).empty());
  EXPECT_NE(full->process_view(0).find("done#"), std::string::npos);
  EXPECT_TRUE(counts->trace().empty());
  EXPECT_TRUE(counts->executed_schedule().empty());
  EXPECT_TRUE(counts->step_infos().empty());
  for (int p = 0; p < counts->num_processes(); ++p) {
    EXPECT_TRUE(counts->process_view(p).empty()) << p;
  }
}

TEST(RecordingModes, ConstructorParameterSelectsMode) {
  std::vector<IntSys::Program> programs;
  programs.push_back([](IntSys::Ctx& ctx) -> runtime::ProcessTask {
    co_await ctx.write(0, 1);
  });
  IntSys sys(1, 0, std::move(programs), RecordingMode::kCountsOnly);
  EXPECT_EQ(sys.recording_mode(), RecordingMode::kCountsOnly);
  runtime::run_round_robin(sys, 100);
  EXPECT_TRUE(sys.trace().empty());
  EXPECT_EQ(sys.register_repr(0), "1");
}

TEST(RecordingModes, ModeSwitchRejectedAfterFirstStep) {
  Maxscan inst({.n = 2}, api::Backend::kSim);
  auto& sys = inst.sim();
  sys.step(0);
  EXPECT_THROW(sys.set_recording_mode(RecordingMode::kCountsOnly),
               invariant_error);
}

TEST(RecordingModes, ObserverAndCountsOnlyAreMutuallyExclusive) {
  {
    Maxscan inst({.n = 2}, api::Backend::kSim);
    auto& sys = inst.sim();
    sys.set_observer([](const runtime::System<std::int64_t>&,
                        const runtime::TraceEntry<std::int64_t>&) {});
    EXPECT_THROW(sys.set_recording_mode(RecordingMode::kCountsOnly),
                 invariant_error);
  }
  {
    Maxscan inst({.n = 2}, api::Backend::kSim);
    auto& sys = inst.sim();
    sys.set_recording_mode(RecordingMode::kCountsOnly);
    EXPECT_THROW(
        sys.set_observer([](const runtime::System<std::int64_t>&,
                            const runtime::TraceEntry<std::int64_t>&) {}),
        invariant_error);
  }
}

// -- versioned reads ---------------------------------------------------------

runtime::ProcessTask versioned_probe_program(
    IntSys::Ctx& ctx, std::vector<runtime::Versioned<std::int64_t>>* out) {
  out->push_back(co_await ctx.versioned_read(0));
  co_await ctx.write(0, 5);
  out->push_back(co_await ctx.versioned_read(0));
  co_await ctx.write(0, 7);
  out->push_back(co_await ctx.versioned_read(0));
}

TEST(VersionedRead, VersionIsTheWriteCountAndMonotonePerWrite) {
  std::vector<runtime::Versioned<std::int64_t>> seen;
  std::vector<IntSys::Program> programs;
  programs.push_back([&seen](IntSys::Ctx& ctx) {
    return versioned_probe_program(ctx, &seen);
  });
  IntSys sys(1, 0, std::move(programs));
  runtime::run_round_robin(sys, 100);
  ASSERT_TRUE(sys.all_finished());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (runtime::Versioned<std::int64_t>{0, 0}));
  EXPECT_EQ(seen[1], (runtime::Versioned<std::int64_t>{5, 1}));
  EXPECT_EQ(seen[2], (runtime::Versioned<std::int64_t>{7, 2}));
  // Each versioned read is one step, like a plain read: 3 reads + 2 writes.
  EXPECT_EQ(sys.steps_taken(), 5u);
  // ISystem surfaces the same clock as the write count.
  EXPECT_EQ(sys.writes_to(0), 2u);
  // The trace records versioned reads as plain reads (same footprint).
  EXPECT_EQ(sys.trace().size(), 5u);
  EXPECT_EQ(sys.trace()[0].kind, runtime::OpKind::kRead);
}

TEST(VersionedRead, DirectCtxMatchesSimulatorSemantics) {
  // Inline (seqlock) cell: int64 registers.
  atomicmem::AtomicMemory<std::int64_t> mem(2, 0);
  EXPECT_EQ(mem.versioned_read(0),
            (runtime::Versioned<std::int64_t>{0, 0}));
  mem.write(0, 42);
  EXPECT_EQ(mem.versioned_read(0),
            (runtime::Versioned<std::int64_t>{42, 1}));
  (void)mem.swap(0, 43);
  EXPECT_EQ(mem.versioned_read(0),
            (runtime::Versioned<std::int64_t>{43, 2}));
  EXPECT_EQ(mem.versioned_read(1).version, 0u);

  // Pointer-swap cell: TsRecord registers carry node-unique versions.
  atomicmem::AtomicMemory<core::TsRecord> rmem(1, core::TsRecord::bottom());
  const auto v0 = rmem.versioned_read(0);
  EXPECT_TRUE(v0.value.is_bottom);
  rmem.write(0, core::TsRecord::make({core::TsId{0, 0}}, 1));
  const auto v1 = rmem.versioned_read(0);
  EXPECT_FALSE(v1.value.is_bottom);
  EXPECT_NE(v1.version, v0.version);
}

// -- the version-clock scan --------------------------------------------------

runtime::ProcessTask versioned_scan_program(
    IntSys::Ctx& ctx, int count, snapshot::ScanResult<std::int64_t>* out) {
  *out = co_await snapshot::versioned_double_collect_scan(ctx, count);
  ctx.note_call_complete();
}

runtime::ProcessTask one_write_program(IntSys::Ctx& ctx, int reg,
                                       std::int64_t value) {
  co_await ctx.write(reg, value);
}

TEST(VersionedScan, CleanScanMatchesValueScan) {
  snapshot::ScanResult<std::int64_t> result;
  std::vector<IntSys::Program> programs;
  programs.push_back([&result](IntSys::Ctx& c) {
    return versioned_scan_program(c, 3, &result);
  });
  IntSys sys(3, 7, std::move(programs));
  runtime::run_round_robin(sys, 100);
  ASSERT_TRUE(sys.all_finished());
  EXPECT_EQ(result.view, (std::vector<std::int64_t>{7, 7, 7}));
  EXPECT_EQ(result.collects, 2u);
  // Same step cost as the value scan: two collects of 3 reads each.
  EXPECT_EQ(sys.steps_taken(), 6u);
  // Untouched registers report version 0.
  EXPECT_EQ(result.versions, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(VersionedScan, InterferenceForcesRetryExactlyLikeValueScan) {
  // Mirror of DoubleCollect.InterferenceForcesThirdCollect: a write between
  // the first two collects bumps r1's version, so the version vectors differ
  // and a third collect is required.
  snapshot::ScanResult<std::int64_t> result;
  std::vector<IntSys::Program> programs;
  programs.push_back([&result](IntSys::Ctx& c) {
    return versioned_scan_program(c, 2, &result);
  });
  programs.push_back(
      [](IntSys::Ctx& c) { return one_write_program(c, 1, 101); });
  IntSys sys(2, 0, std::move(programs));
  runtime::run_script(sys, std::vector<int>{0, 0, 1});
  runtime::run_round_robin(sys, 100);
  ASSERT_TRUE(sys.all_finished());
  EXPECT_GE(result.collects, 3u);
  EXPECT_EQ(result.view, (std::vector<std::int64_t>{0, 101}));
  EXPECT_EQ(result.versions, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(result.linearize_step, 5u);
}

TEST(VersionedScan, CatchesAbaThatFoolsTheValueScan) {
  // The strengthening over the value scan: writes that restore a previous
  // value (A->B->A) between two collects are invisible to value comparison
  // but bump the version clock, forcing a retry. The final view is the
  // memory state at a single point either way, but only the version scan
  // proves it without the writes-always-change-values side condition.
  snapshot::ScanResult<std::int64_t> result;
  std::vector<IntSys::Program> programs;
  programs.push_back([&result](IntSys::Ctx& c) {
    return versioned_scan_program(c, 2, &result);
  });
  programs.push_back([](IntSys::Ctx& c) -> runtime::ProcessTask {
    co_await c.write(1, 1);  // A -> B
    co_await c.write(1, 0);  // B -> A (restores the initial value)
  });
  IntSys sys(2, 0, std::move(programs));
  // Scanner collect 1 reads {r0, r1}, then BOTH writes land, then collect 2
  // reads the same values — versions 0 vs 2 for r1 force a third collect.
  runtime::run_script(sys, std::vector<int>{0, 0, 1, 1});
  runtime::run_round_robin(sys, 100);
  ASSERT_TRUE(sys.all_finished());
  EXPECT_GE(result.collects, 3u);
  EXPECT_EQ(result.view, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(result.versions, (std::vector<std::uint64_t>{0, 2}));
}

TEST(VersionedScan, BoundedFamilyScanStepCostUnchanged) {
  // The bounded family opted into the version-clock scan; a solo getTS must
  // still cost one double collect (2n reads) plus one write.
  const int n = 3;
  api::EngineInstance<api::BoundedEngine> inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, 0, 1, 1000));
  EXPECT_EQ(sys.steps_taken(), static_cast<std::uint64_t>(2 * n + 1));
}

}  // namespace
