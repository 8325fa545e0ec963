// Tests: Algorithm 4 (Section 6) — correctness, invariants, space bound,
// phase structure, wait-freedom, the bounded-M generalization, and the
// Section 7 growing variant.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "api/registry.hpp"
#include "core/growing_oneshot.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "util/math.hpp"
#include "verify/hb_checker.hpp"
#include "verify/invariants.hpp"

#include "count_allocations.hpp"

namespace {

using namespace stamped;
using core::PairTimestamp;
using Sqrt = api::EngineInstance<api::SqrtEngine>;
using Growing = api::EngineInstance<api::GrowingEngine<>>;
using stamped_test::allocations_in;

// Out of line, so the compiler cannot pair a copy's allocation with its
// release and elide both.
[[gnu::noinline]] core::TsRecord copy_of(const core::TsRecord& rec) {
  return rec;
}
[[gnu::noinline]] void assign(core::TsRecord& to, const core::TsRecord& from) {
  to = from;
}

TEST(SqrtOneShot, RegisterAllocationMatchesTheorem13) {
  EXPECT_EQ(core::sqrt_oneshot_registers(1), 2);
  EXPECT_EQ(core::sqrt_oneshot_registers(4), 4);
  EXPECT_EQ(core::sqrt_oneshot_registers(16), 8);
  EXPECT_EQ(core::sqrt_oneshot_registers(100), 20);
  Sqrt inst({.n = 16}, api::Backend::kSim);
  EXPECT_EQ(inst.system().num_registers(), 8);
}

TEST(SqrtOneShot, SequentialExecutionFollowsPhaseSchema) {
  // Sequential calls: the phase-k starter returns (k, 0) and the j-th
  // invalidator after it returns (k, j) — Section 6.1's sequential analysis.
  const int n = 10;
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  runtime::check_no_failures(sys);
  auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n);
  const std::vector<PairTimestamp> expected{
      {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1},
      {3, 2}, {4, 0}, {4, 1}, {4, 2}, {4, 3},
  };
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].ts.rnd,
              expected[static_cast<std::size_t>(i)].rnd) << "call " << i;
    EXPECT_EQ(records[static_cast<std::size_t>(i)].ts.turn,
              expected[static_cast<std::size_t>(i)].turn) << "call " << i;
  }
}

TEST(SqrtOneShot, SequentialSpaceIsSqrtTwoM) {
  // Sequential execution fills phases 1,2,...: after M calls about
  // sqrt(2M) registers are non-bottom — comfortably below ceil(2*sqrt(M)).
  const int n = 50;
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  const int used = sys.registers_written();
  EXPECT_LE(used, core::sqrt_oneshot_registers(n) - 1);  // sentinel untouched
  EXPECT_GE(used, util::isqrt(2 * n) - 1);
}

// Property sweep over (n, seed) on both Algorithm 4 engines: correctness +
// invariants + space bound under random schedules, with the invariant
// checker validating every single step. The growing pool has n + 2
// registers, but the paper's algorithm writes no more of them than
// ceil(2*sqrt(n)) - 1 either, and never its last.
class SqrtOneShotProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

template <class E>
void check_random_run(int n, std::uint64_t seed) {
  api::EngineInstance<E> inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  util::Rng rng(seed);
  runtime::run_random(sys, rng, 1 << 24);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  EXPECT_EQ(checker.steps_checked(), sys.steps_taken());

  // Correctness: the timestamp property.
  const auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Space: at most ceil(2*sqrt(n)) registers, sentinel never written.
  EXPECT_LE(sys.registers_written(), core::sqrt_oneshot_registers(n) - 1);
  EXPECT_FALSE(sys.register_written(sys.num_registers() - 1));

  // Phase analysis: Phi < 2*sqrt(M), invalidations <= 2M, Claim 6.8.
  auto analysis = verify::analyze_phases(sys, inst.engine().stats(), n);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

TEST_P(SqrtOneShotProperty, CorrectInvariantsAndSpace) {
  const auto [n, seed] = GetParam();
  check_random_run<api::SqrtEngine>(n, seed);
}

TEST_P(SqrtOneShotProperty, GrowingPoolCorrectInvariantsAndSpace) {
  const auto [n, seed] = GetParam();
  check_random_run<api::GrowingEngine<>>(n, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SqrtOneShotProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 9, 16, 25, 40, 64),
                       ::testing::Values(11u, 12u, 13u, 14u, 15u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SqrtOneShot, WaitFreeStepBound) {
  // Lemma 6.14: the while-loop <= m-1 iterations, the for-loop <= m-2, and
  // the scan's collects are bounded by interfering writes. We assert a
  // generous concrete bound: every call finishes within O(m * (m + M)) steps.
  // Each process makes exactly one call, so its step count is that call's.
  for (int n : {8, 32, 64}) {
    Sqrt inst({.n = n}, api::Backend::kSim);
    auto& sys = inst.system();
    util::Rng rng(static_cast<std::uint64_t>(1000 + n));
    runtime::run_random(sys, rng, 1 << 24);
    ASSERT_TRUE(sys.all_finished());
    const std::uint64_t m =
        static_cast<std::uint64_t>(core::sqrt_oneshot_registers(n));
    const std::uint64_t bound =
        4 * m * (m + static_cast<std::uint64_t>(n)) + 64;
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(sys.calls_completed(p), 1u) << "process " << p;
      EXPECT_LE(sys.steps_taken_by(p), bound) << "call by process " << p;
    }
  }
}

TEST(SqrtOneShot, RecordCopiesAllocateOnlyForLongSequences) {
  // Most register reads return a one-id invalidation record, and every read
  // copies the record out of its register: that copy must not allocate. A
  // phase starter's longer record owns one array, copied exactly once.
  const core::TsRecord one = core::TsRecord::make({{3, 0}}, 2);
  const core::TsRecord two = core::TsRecord::make({{1, 0}, {2, 0}}, 2);

  core::TsRecord copy;
  EXPECT_EQ(allocations_in([&] { copy = copy_of(one); }), 0u);
  EXPECT_EQ(copy, one);
  core::TsRecord target = core::TsRecord::bottom();
  EXPECT_EQ(allocations_in([&] { assign(target, one); }), 0u);
  EXPECT_EQ(target, one);
  core::TsRecord long_target = two;
  EXPECT_EQ(allocations_in([&] { assign(long_target, one); }), 0u);
  EXPECT_EQ(long_target, one);

  core::TsRecord long_copy;
  EXPECT_EQ(allocations_in([&] { long_copy = copy_of(two); }), 1u);
  EXPECT_EQ(long_copy, two);
}

TEST(SqrtOneShot, NativeBuildAllocatesNothingPerProcess) {
  // A native instance holds one task maker and one array of recorder
  // arenas, so building it for 4x the processes costs only the node of each
  // extra register cell: 64 registers at n = 1024 against 32 at n = 256.
  const api::TimestampFamily& fam = api::family("sqrt-oneshot");
  const auto build_allocations = [&fam](int n) {
    return allocations_in([&fam, n] { (void)fam.make_native({.n = n}); });
  };
  const std::uint64_t extra_cells =
      static_cast<std::uint64_t>(core::sqrt_oneshot_registers(1024) -
                                 core::sqrt_oneshot_registers(256));
  ASSERT_EQ(extra_cells, 32u);
  const std::uint64_t small = build_allocations(256);
  EXPECT_LE(build_allocations(1024), small + extra_cells);
}

TEST(SqrtOneShot, AdversarialStallersStillCorrect) {
  // Schedule half the processes to the brink of their first write, then let
  // the rest run, then release the stalled writers — exercising the stale
  // invalidation paths (lines 10-12).
  const int n = 16;
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  std::unordered_set<int> nothing;
  for (int p = 0; p < n / 2; ++p) {
    runtime::run_solo_until_poised_outside(sys, p, nothing, 100000);
  }
  for (int p = n / 2; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  for (int p = 0; p < n / 2; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  runtime::check_no_failures(sys);
  auto report =
      verify::check_timestamp_property(inst.records(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(sys.registers_written(), core::sqrt_oneshot_registers(n) - 1);
}

TEST(SqrtOneShot, BoundedMGeneralization) {
  // M = n * calls per process; IDs are "p.k"; the register budget follows M.
  const int n = 6;
  const int calls = 4;
  Sqrt inst({.n = n, .calls_per_process = calls}, api::Backend::kSim);
  auto& sys = inst.sim();
  EXPECT_EQ(sys.num_registers(), core::sqrt_oneshot_registers(n * calls));
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  util::Rng rng(77);
  runtime::run_random(sys, rng, 1 << 24);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  const auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n * calls);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto mono = verify::check_per_process_monotonicity(records, core::Compare{});
  EXPECT_TRUE(mono.ok()) << mono.to_string();
  auto analysis =
      verify::analyze_phases(sys, inst.engine().stats(), n * calls);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

TEST(SqrtOneShot, GrowingVariantUnboundedPool) {
  // Section 7: same algorithm, register pool sized by actual invocations.
  const int n = 12;
  Growing inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  EXPECT_EQ(sys.num_registers(), core::growing_pool_registers(n));
  util::Rng rng(5);
  runtime::run_random(sys, rng, 1 << 24);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  auto report =
      verify::check_timestamp_property(inst.records(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The pool is larger, but usage stays within the Lemma 6.5 bound.
  EXPECT_LE(sys.registers_written(), core::sqrt_oneshot_registers(n));
}

TEST(SqrtOneShot, AlwaysOverwriteAblationStillCorrect) {
  const int n = 20;
  // The ablated variant runs on the growing engine's generous register
  // pool: it may exceed the paper's space bound (that is the point of the
  // ablation).
  api::EngineInstance<api::GrowingEngine<core::SqrtVariant::kAlwaysOverwrite>>
      inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  util::Rng rng(123);
  runtime::run_random(sys, rng, 1 << 24);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  auto report =
      verify::check_timestamp_property(inst.records(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SqrtOneShot, ScanCollectCountsRecorded) {
  Sqrt inst({.n = 8}, api::Backend::kSim);
  util::Rng rng(9);
  runtime::run_random(inst.system(), rng, 1 << 22);
  ASSERT_TRUE(inst.system().all_finished());
  const auto scans = inst.engine().stats().scans();
  ASSERT_FALSE(scans.empty());
  for (const auto& scan : scans) {
    EXPECT_GE(scan.collects, 2u);  // a successful double collect needs two
  }
}

}  // namespace
