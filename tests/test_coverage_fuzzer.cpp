// The coverage-guided schedule fuzzer: unit tests for the op-pair coverage
// map, plus the seeded-bug differential — a test-local bounded variant with a
// planted label-recycling bug that fair schedules never trip, which the
// fuzzer must find within a fixed budget. A same-budget seeded-random sweep
// runs for comparison but carries no obligation to find it: that asymmetry
// is the point of coverage guidance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "api/engine_family.hpp"
#include "api/harness.hpp"
#include "runtime/coro.hpp"
#include "verify/coverage.hpp"

namespace {

using namespace stamped;

runtime::StepInfo step(int pid, runtime::OpKind kind, int reg) {
  return {pid, kind, reg};
}

TEST(CoverageMap, SignatureDistinguishesOpKindRegisterAndAliasing) {
  const auto rd = [](int pid, int reg) {
    return step(pid, runtime::OpKind::kRead, reg);
  };
  const auto wr = [](int pid, int reg) {
    return step(pid, runtime::OpKind::kWrite, reg);
  };
  // Orientation matters: who steps first is part of the interleaving.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), wr(1, 1)),
            verify::CoverageMap::signature(wr(1, 1), rd(0, 0)));
  // Op kind matters.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), rd(1, 1)),
            verify::CoverageMap::signature(rd(0, 0), wr(1, 1)));
  // Register matters.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), wr(1, 1)),
            verify::CoverageMap::signature(rd(0, 0), wr(1, 2)));
  // The low bit is the same-register (conflict) flag.
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 3), wr(1, 3)) & 1u, 1u);
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 3), wr(1, 4)) & 1u, 0u);
  // The signature ignores pids — only the op shapes and their aliasing
  // matter, so coverage transfers across symmetric processes.
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 2), wr(1, 2)),
            verify::CoverageMap::signature(rd(2, 2), wr(0, 2)));
}

TEST(CoverageMap, AddExecutionCountsFreshCrossProcessPairsOnly) {
  verify::CoverageMap cov;
  const std::vector<runtime::StepInfo> steps = {
      step(0, runtime::OpKind::kRead, 0),   // p0,p0: same pid — no signature
      step(0, runtime::OpKind::kWrite, 0),  //
      step(1, runtime::OpKind::kRead, 1),   // p0->p1 boundary: 1 signature
      step(0, runtime::OpKind::kRead, 0),   // p1->p0 boundary: 1 signature
  };
  EXPECT_EQ(cov.add_execution(steps), 2u);
  EXPECT_EQ(cov.size(), 2u);
  // Replaying the same execution visits nothing new.
  EXPECT_EQ(cov.add_execution(steps), 0u);
  EXPECT_EQ(cov.size(), 2u);
  EXPECT_EQ(cov.add_execution({}), 0u);
}

// ---- the seeded bug -------------------------------------------------------
//
// A bounded-universe variant: labels live in Z_K (collect/max+1 over n label
// registers), and when the label space is exhausted the caller recycles —
// clears every label register and opens the next epoch by bumping register n.
// Timestamps are epoch*K + label, compared as integers.
//
// The planted bug is in the recycling path: the epoch it writes is derived
// from the value read at the START of the call. If two other wraps complete
// between that read and the wrap write, the stale write REGRESSES the epoch
// register, and a later call returns a timestamp at or below one that already
// completed — a timestamp-property violation. Fair schedules (sequential,
// round-robin) never stall a caller across two full wraps, so the bug is
// invisible to them; only an adversarial stall between the epoch read and the
// wrap write exposes it.

constexpr std::int64_t kBuggyModulus = 4;

template <class Ctx, class Log>
runtime::SubTask<std::int64_t> buggy_getts(Ctx& ctx, int pid, int n,
                                           int call_index, Log* log) {
  const std::uint64_t invoked = ctx.stamp();
  const std::int64_t e = co_await ctx.read(n);  // epoch, read once (the bug)
  std::int64_t mx = 0;
  for (int i = 0; i < n; ++i) {
    mx = std::max(mx, co_await ctx.read(i));
  }
  std::int64_t label = mx + 1;
  std::int64_t epoch = e;
  if (label >= kBuggyModulus) {
    // Recycle: clear the exhausted labels and open the next epoch. `e` is
    // stale by now if other wraps completed since the call started — the
    // write below can move the epoch register backwards.
    label = 0;
    epoch = e + 1;
    for (int i = 0; i < n; ++i) co_await ctx.write(i, 0);
    co_await ctx.write(n, epoch);
  } else {
    co_await ctx.write(pid, label);
  }
  const std::int64_t ts = epoch * kBuggyModulus + label;
  if (log != nullptr) log->record({pid, call_index, ts, invoked, ctx.stamp()});
  ctx.note_call_complete();
  co_return ts;
}

/// The seeded bug as a test-local engine: n label registers plus the epoch
/// register, derived into a family by the same template as the registry's.
struct BuggyBoundedEngine
    : api::EngineBase<std::int64_t, std::int64_t, std::less<std::int64_t>> {
  static constexpr api::FamilyInfo kInfo{
      .name = "buggy-bounded",
      .summary = "test-local bounded variant with a stale-epoch recycling bug",
      .paper_ref = "none (seeded bug for the fuzzer differential)",
      .lifetime = api::Lifetime::kLongLived,
      .universe = "epoch*K + label, compared as integers",
      .writes_full_allocation = true};

  explicit BuggyBoundedEngine(const api::ScenarioSpec&) {}

  static int registers(int width, const api::ScenarioSpec&) {
    return width + 1;
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const api::Geometry& g, int pid,
                             int k, Log* log) {
    return buggy_getts(ctx, pid, g.width, k, log);
  }
};

api::TimestampFamily buggy_bounded_family() {
  return api::engine_family<BuggyBoundedEngine>();
}

api::ScenarioSpec buggy_spec() {
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 8;
  spec.seed = 5;
  return spec;
}

constexpr std::uint64_t kFuzzSeed = 11;
constexpr std::uint64_t kFuzzBudget = 64;

TEST(SeededBug, FairSchedulesDoNotTripTheBug) {
  // The differential's baseline: the bug is schedule-dependent, not a plain
  // logic error — sequential and round-robin runs are clean.
  const auto fam = buggy_bounded_family();
  for (const auto& source : {api::sequential(), api::round_robin()}) {
    const auto report = api::Harness{}.run_scenario(fam, buggy_spec(), source);
    EXPECT_TRUE(report.ok()) << source.name << ": " << report.summary();
    EXPECT_TRUE(report.all_finished);
  }
}

TEST(SeededBug, CoverageFuzzerFindsTheViolationWithinBudget) {
  const auto fam = buggy_bounded_family();
  const auto report = api::Harness{}.run_scenario(
      fam, buggy_spec(), api::coverage_fuzzer(kFuzzSeed, kFuzzBudget));
  EXPECT_FALSE(report.ok())
      << "planted recycling bug not found in " << kFuzzBudget
      << " executions: " << report.summary();
  EXPECT_GT(report.coverage_signatures, 0u);
  EXPECT_GE(report.corpus_size, 1u);
  EXPECT_EQ(report.executions, kFuzzBudget);
}

TEST(SeededBug, RandomAtEqualBudgetCarriesNoObligation) {
  // The same budget of independent seeded-random executions. Whether it
  // stumbles onto the bug is seed luck — the differential asserts nothing
  // about it beyond well-formedness, and reports the count for the curious.
  const auto fam = buggy_bounded_family();
  std::uint64_t found = 0;
  for (std::uint64_t e = 0; e < kFuzzBudget; ++e) {
    auto spec = buggy_spec();
    spec.seed = kFuzzSeed + e;
    const auto report =
        api::Harness{}.run_scenario(fam, spec, api::seeded_random());
    EXPECT_TRUE(report.all_finished);
    if (!report.ok()) ++found;
  }
  RecordProperty("random_violations_found", static_cast<int>(found));
}

}  // namespace
