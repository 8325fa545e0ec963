// Fault injection: wait-freedom means every process finishes its getTS in a
// bounded number of ITS OWN steps, regardless of what other processes do —
// including crashing (never being scheduled again) at arbitrary points,
// possibly while covering registers.
//
// The crash schedules come from the public api::crash_restart source (the
// crash/restart ScheduleSource built on runtime::run_crash_restart), so every
// suite here is a consumer of the same adversary the conformance tests run —
// no ad-hoc crash loops. The checkers hold survivors to the full timestamp
// property; crashed calls never completed, never entered the history, and
// carry no obligation.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_set>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "api/harness.hpp"
#include "api/registry.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "snapshot/wait_free_snapshot.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;

runtime::CrashPlan crash_plan(int crashes, std::uint64_t max_victim_steps) {
  runtime::CrashPlan plan;
  plan.crashes = crashes;
  plan.restart = false;
  plan.max_victim_steps = max_victim_steps;
  return plan;
}

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(FaultSweep, SqrtOneShotSurvivesCrashes) {
  const auto [n, crashes, seed] = GetParam();
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = 1;
  spec.seed = seed;
  const auto report = api::Harness{}.run_scenario(
      api::family("sqrt-oneshot"), spec, api::crash_restart(crash_plan(crashes, 16)));
  // Survivors' calls satisfy the property; crashed calls never completed.
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.survivors_finished) << report.summary();
  EXPECT_EQ(report.all_finished, report.crashed_down == 0);
  // Space bound still holds (crashed processes may cover but not write more).
  EXPECT_LE(report.registers_written, core::sqrt_oneshot_registers(n) - 1);
  EXPECT_EQ(report.registers_allocated, core::sqrt_oneshot_registers(n));
}

TEST_P(FaultSweep, SimpleOneShotSurvivesCrashes) {
  const auto [n, crashes, seed] = GetParam();
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = 1;
  spec.seed = seed ^ 0xabcdef;
  const auto report = api::Harness{}.run_scenario(
      api::family("simple-oneshot"), spec, api::crash_restart(crash_plan(crashes, 8)));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.survivors_finished) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Combine(::testing::Values(6, 12, 24), ::testing::Values(1, 3, 8),
                       ::testing::Values(61u, 62u, 63u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(FaultInjection, MaxScanSurvivesCrashes) {
  // Long-lived family, crashes without restart: survivors keep taking
  // timestamps through the dead processes' covered registers. Monotonicity
  // runs through the default checkers.
  api::ScenarioSpec spec;
  spec.n = 8;
  spec.calls_per_process = 3;
  spec.seed = 7;
  const auto report = api::Harness{}.run_scenario(
      api::family("maxscan"), spec, api::crash_restart(crash_plan(3, 12)));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.survivors_finished) << report.summary();
}

TEST(FaultInjection, MaxScanRestartedVictimsFinishEverything) {
  // With restart, every victim comes back with fresh local state and re-runs
  // its whole program — so the run ends with nobody down and all_finished.
  runtime::CrashPlan plan;
  plan.crashes = 4;
  plan.restart = true;
  plan.restart_delay = 6;
  api::ScenarioSpec spec;
  spec.n = 6;
  spec.calls_per_process = 3;
  spec.seed = 17;
  const auto report = api::Harness{}.run_scenario(api::family("maxscan"), spec,
                                                  api::crash_restart(plan));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.all_finished);
  EXPECT_EQ(report.crashed_down, 0u);
  EXPECT_EQ(report.restarts, report.crashes);
}

TEST(FaultInjection, CrashedCoverersDoNotBlockAlgorithm4Scans) {
  // Crash processes exactly when they are poised to write (covering) — the
  // scan's double collect must still succeed because a poised write is never
  // executed. This placement is more surgical than the random adversary, so
  // it stays on the raw runtime API.
  const int n = 12;
  api::EngineInstance<api::SqrtEngine> inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  std::unordered_set<int> nothing;
  for (int v : {0, 1, 2}) {
    ASSERT_TRUE(
        runtime::run_solo_until_poised_outside(sys, v, nothing, 100000));
    // v is now covering its first write target; never scheduled again.
  }
  for (int p = 3; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  const auto records = inst.records();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(n - 3));
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

class ShardedFaultSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ShardedFaultSweep, VictimCrashesLeaveCleanHistories) {
  // The sharded service under the crash adversary for every family x shards
  // {1, 2, 4}. Crash thresholds land anywhere in a victim's own step stream,
  // including mid-getTS. Survivors must finish and leave composed/per-shard/
  // cross-shard/at-most-once histories clean.
  const auto [name, shards] = GetParam();
  const auto& fam = api::family(name);
  api::ScenarioSpec spec;
  spec.n = 8;
  spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 3;
  spec.universe_bound = 64;  // bounded family: window covers every call
  spec.shard.shards = shards;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    spec.seed = seed;
    const auto report = api::Harness{}.run_scenario(
        fam, spec, api::crash_restart(crash_plan(3, 16)));
    EXPECT_TRUE(report.ok())
        << name << " shards=" << shards << " seed=" << seed << ": "
        << report.summary();
    EXPECT_TRUE(report.survivors_finished)
        << name << " shards=" << shards << " seed=" << seed
        << ": a crashed client wedged its shard — " << report.summary();
    EXPECT_EQ(report.all_finished, report.crashed_down == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ShardedFaultSweep,
    ::testing::Combine(::testing::Values("maxscan", "fetchadd",
                                         "simple-oneshot", "sqrt-oneshot",
                                         "growing-oneshot", "bounded"),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      std::string fam = std::get<0>(info.param);
      for (char& c : fam) {
        if (c == '-') c = '_';
      }
      return fam + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(FaultInjection, ShardedServiceSurvivesJitterStalls) {
  // The jitter adversary stalls processes for whole windows, the sim-side
  // version of native preemption. Every client finishes and the histories
  // stay clean.
  api::ScenarioSpec spec;
  spec.n = 8;
  spec.calls_per_process = 3;
  spec.seed = 11;
  spec.shard.shards = 2;
  runtime::JitterSpec jitter;
  jitter.stall_period = 4;
  jitter.max_stall = 48;
  const auto report = api::Harness{}.run_scenario(api::family("maxscan"),
                                                  spec, api::jittered(jitter));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.all_finished) << report.summary();
  EXPECT_GT(report.stalls, 0u);
}

TEST(FaultInjection, SnapshotScanWaitFreeDespiteCrashedWriters) {
  // The snapshot object is not a timestamp family, so it takes the runtime
  // crash driver directly rather than going through the harness.
  const int n = 4;
  snapshot::ScanLog log;
  auto sys = snapshot::make_snapshot_system(n, 2, &log);
  util::Rng rng(3);
  const auto stats = runtime::run_crash_restart(
      *sys, rng, crash_plan(2, 10), std::uint64_t{1} << 24);
  EXPECT_TRUE(stats.survivors_finished);
  EXPECT_GT(stats.crashes, 0u);
  runtime::check_no_failures(*sys);
}

}  // namespace
