// Tests: the bakery-style FCFS lock built on the timestamp object
// (src/apps/fcfs_lock.hpp) — mutual exclusion, FCFS fairness, progress, and
// the same under real threads.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/fcfs_lock.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "native/native_system.hpp"
#include "native/recorder.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace stamped;
using apps::BakeryLayout;

TEST(FcfsLock, LayoutArithmetic) {
  BakeryLayout layout{4};
  EXPECT_EQ(BakeryLayout::registers(4), 16);
  EXPECT_EQ(layout.ts_reg(2), 2);
  EXPECT_EQ(layout.choosing_reg(2), 6);
  EXPECT_EQ(layout.number_reg(2), 10);
  EXPECT_EQ(layout.cs_reg(2), 14);
}

TEST(FcfsLock, SequentialCyclesAreFifo) {
  apps::BakeryLog log;
  auto sys = apps::make_bakery_system(3, 2, &log);
  apps::attach_mutex_checker(*sys, 3);
  // Strictly sequential: each process completes its cycles alone.
  runtime::run_round_robin(*sys, 1 << 22);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_TRUE(apps::check_fcfs(records).empty());
  EXPECT_TRUE(apps::check_cs_disjoint(records).empty());
}

class FcfsLockSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(FcfsLockSweep, MutualExclusionAndFcfsUnderRandomSchedules) {
  const auto [n, rounds, seed] = GetParam();
  apps::BakeryLog log;
  auto sys = apps::make_bakery_system(n, rounds, &log);
  apps::attach_mutex_checker(*sys, n);  // throws on any ME violation
  util::Rng rng(seed);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished()) << "no progress under a fair schedule?";
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n * rounds));
  const std::string fcfs = apps::check_fcfs(records);
  EXPECT_TRUE(fcfs.empty()) << fcfs;
  const std::string disjoint = apps::check_cs_disjoint(records);
  EXPECT_TRUE(disjoint.empty()) << disjoint;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FcfsLockSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6), ::testing::Values(1, 3),
                       ::testing::Values(51u, 52u, 53u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(FcfsLock, HeavyContentionSingleRegisterOfTruth) {
  // 8 processes pounding the lock; the mutex observer checks every step.
  apps::BakeryLog log;
  auto sys = apps::make_bakery_system(8, 2, &log);
  apps::attach_mutex_checker(*sys, 8);
  util::Rng rng(99);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished());
  EXPECT_TRUE(apps::check_cs_disjoint(log.snapshot()).empty());
}

TEST(FcfsLock, WorksUnderRealThreads) {
  const int n = 4;
  const int rounds = 25;
  for (int trial = 0; trial < 5; ++trial) {
    apps::BakeryLog log;
    const BakeryLayout layout{n};
    native::NativeSystem<std::int64_t> sys(
        BakeryLayout::registers(n), 0, n,
        [layout, rounds, &log](atomicmem::DirectCtx<std::int64_t>& ctx,
                               int p) {
          return apps::bakery_worker_program(ctx, layout, p, rounds, &log,
                                             nullptr);
        });
    (void)sys.run(n);
    auto records = log.snapshot();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(n * rounds));
    const std::string disjoint = apps::check_cs_disjoint(records);
    EXPECT_TRUE(disjoint.empty()) << disjoint;
    const std::string fcfs = apps::check_fcfs(records);
    EXPECT_TRUE(fcfs.empty()) << fcfs;
  }
}

TEST(FcfsLock, TicketsComeFromTheTimestampObject) {
  native::HistoryRecorder<std::int64_t> ts_log(3);
  apps::BakeryLog log;
  auto sys = apps::make_bakery_system(3, 2, &log, &ts_log);
  util::Rng rng(7);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished());
  // Every acquisition consumed one getTS.
  EXPECT_EQ(ts_log.size(), log.snapshot().size());
}

}  // namespace
