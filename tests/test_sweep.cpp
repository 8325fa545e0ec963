// Tests: Harness::run_scenario_sweep — the parallel scenario grid runner.
//
// Replay determinism is the property that makes the sweep safe: every worker
// owns its own System, so the per-spec reports must be byte-identical to a
// serial loop of run_scenario calls, whatever the worker interleaving.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"

namespace {

using namespace stamped;

std::vector<api::ScenarioSpec> maxscan_grid() {
  std::vector<api::ScenarioSpec> grid;
  for (int n : {2, 3, 5, 8}) {
    for (int calls : {1, 3}) {
      for (std::uint64_t seed : {11u, 22u}) {
        api::ScenarioSpec spec;
        spec.n = n;
        spec.calls_per_process = calls;
        spec.seed = seed;
        grid.push_back(spec);
      }
    }
  }
  return grid;
}

TEST(ScenarioSweep, MatchesSerialRunsExactly) {
  const api::Harness harness;
  const auto grid = maxscan_grid();
  const auto sweep = harness.run_scenario_sweep(
      api::family("maxscan"), grid, api::seeded_random(), {}, 4);
  ASSERT_EQ(sweep.reports.size(), grid.size());
  EXPECT_TRUE(sweep.ok()) << sweep.summary();
  EXPECT_EQ(sweep.workers, 4);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = harness.run_scenario(api::family("maxscan"), grid[i],
                                             api::seeded_random());
    EXPECT_EQ(sweep.reports[i].summary(), serial.summary()) << i;
    EXPECT_EQ(sweep.reports[i].steps, serial.steps) << i;
    EXPECT_EQ(sweep.reports[i].registers_written, serial.registers_written)
        << i;
  }
}

TEST(ScenarioSweep, AggregatesTotals) {
  const api::Harness harness;
  const auto grid = maxscan_grid();
  const auto sweep = harness.run_scenario_sweep(
      api::family("maxscan"), grid, api::round_robin(), {}, 3);
  std::uint64_t steps = 0;
  std::uint64_t calls = 0;
  for (const auto& rep : sweep.reports) {
    steps += rep.steps;
    calls += rep.calls;
  }
  EXPECT_EQ(sweep.total_steps, steps);
  EXPECT_EQ(sweep.total_calls, calls);
  EXPECT_EQ(sweep.scenarios_failed, 0u);
  EXPECT_GT(sweep.total_calls, 0u);
}

TEST(ScenarioSweep, WorkerCountDefaultsAndClamps) {
  const api::Harness harness;
  std::vector<api::ScenarioSpec> grid(2);
  grid[0].n = 2;
  grid[1].n = 3;
  // More workers than specs: clamped to the grid size.
  const auto sweep = harness.run_scenario_sweep(
      api::family("maxscan"), grid, api::round_robin(), {}, 16);
  EXPECT_EQ(sweep.workers, 2);
  EXPECT_TRUE(sweep.ok());
  // Empty grid: no workers, empty report.
  const auto empty = harness.run_scenario_sweep(
      api::family("maxscan"), {}, api::round_robin());
  EXPECT_TRUE(empty.reports.empty());
  EXPECT_TRUE(empty.ok());
}

TEST(ScenarioSweep, CountsOnlyRecordingKeepsCheckersWorking) {
  // kCountsOnly skips the System's per-step bookkeeping but the history
  // recorder is program-level, so the history checkers still see every call.
  const api::Harness harness;
  std::vector<api::ScenarioSpec> grid;
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    api::ScenarioSpec spec;
    spec.n = 4;
    spec.calls_per_process = 3;
    spec.seed = seed;
    spec.recording = runtime::RecordingMode::kCountsOnly;
    grid.push_back(spec);
  }
  const auto sweep = harness.run_scenario_sweep(
      api::family("maxscan"), grid, api::seeded_random(), {}, 2);
  EXPECT_TRUE(sweep.ok()) << sweep.summary();
  for (const auto& rep : sweep.reports) {
    EXPECT_TRUE(rep.all_finished) << rep.summary();
    EXPECT_GT(rep.ordered_pairs, 0u) << rep.summary();
  }
}

TEST(ScenarioSweep, ExhaustiveSourceRejectsCountsOnlyRecording) {
  // The explorer needs full recording (prefix replay, views); the conflict
  // must be rejected loudly, not silently run in kFull.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.recording = runtime::RecordingMode::kCountsOnly;
  EXPECT_THROW(static_cast<void>(api::Harness{}.run_scenario(
                   api::family("simple-oneshot"), spec,
                   api::exhaustive_explorer())),
               invariant_error);
}

/// Field-by-field equality of two ScenarioReports — "byte-identical" spelled
/// out so a mismatch names the drifting field instead of dumping structs.
void expect_identical_reports(const api::ScenarioReport& a,
                              const api::ScenarioReport& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.all_finished, b.all_finished);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.registers_allocated, b.registers_allocated);
  EXPECT_EQ(a.registers_written, b.registers_written);
  EXPECT_EQ(a.ordered_pairs, b.ordered_pairs);
  EXPECT_EQ(a.concurrent_pairs, b.concurrent_pairs);
  EXPECT_EQ(a.filtered_pairs, b.filtered_pairs);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.crashed_down, b.crashed_down);
  EXPECT_EQ(a.survivors_finished, b.survivors_finished);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.coverage_signatures, b.coverage_signatures);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned);
  EXPECT_EQ(a.persistent_deferred, b.persistent_deferred);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(AdversaryDeterminism, SameSpecAndSeedSameReportBytes) {
  // The adversarial sources' contract: same ScenarioSpec + seed => identical
  // ScenarioReport, for every family and all three new sources. All their
  // randomness flows through the single seeded rng, so two runs must agree
  // in every field (explore_workers excluded: it is an explorer-only field
  // and stays 0 here).
  const api::Harness harness;
  runtime::CrashPlan plan;
  plan.crashes = 2;
  const std::vector<api::ScheduleSource> sources = {
      api::crash_restart(plan), api::jittered(),
      api::coverage_fuzzer(/*seed=*/3, /*budget=*/12)};
  for (const auto& fam : api::registry()) {
    api::ScenarioSpec spec;
    spec.n = 4;
    spec.calls_per_process = fam.max_calls_per_process == 0 ? 3 : 1;
    spec.seed = 99;
    for (const auto& source : sources) {
      const auto first = harness.run_scenario(fam, spec, source);
      const auto second = harness.run_scenario(fam, spec, source);
      SCOPED_TRACE(fam.name + " x " + source.name);
      expect_identical_reports(first, second);
    }
  }
}

TEST(AdversaryDeterminism, CrashRestartDeterministicWithRestarts) {
  // Restart resets coroutine-local state; the report must still be a pure
  // function of (spec, seed, plan) — fresh frames may not leak any
  // run-to-run nondeterminism.
  runtime::CrashPlan plan;
  plan.crashes = 3;
  plan.restart = true;
  plan.restart_delay = 5;
  api::ScenarioSpec spec;
  spec.n = 5;
  spec.calls_per_process = 4;
  spec.seed = 1234;
  const auto first = api::Harness{}.run_scenario(
      api::family("maxscan"), spec, api::crash_restart(plan));
  const auto second = api::Harness{}.run_scenario(
      api::family("maxscan"), spec, api::crash_restart(plan));
  expect_identical_reports(first, second);
  EXPECT_GT(first.crashes, 0u) << first.summary();
}

TEST(AdversaryDeterminism, ExhaustiveReportInvariantAcrossExploreThreads) {
  // The parallel explorer merges per-worker results into set-derived counts,
  // so the report must not depend on the worker count (explore_workers, the
  // pool-size field itself, is the only legitimate difference).
  verify::ExploreOptions opts;
  opts.por = true;
  opts.persistent = true;
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  api::ScenarioReport baseline;
  bool have_baseline = false;
  for (int threads : {1, 2, 4}) {
    opts.threads = threads;
    auto report = api::Harness{}.run_scenario(
        api::family("maxscan"), spec, api::exhaustive_explorer(opts));
    EXPECT_EQ(report.explore_workers, threads);
    report.explore_workers = 0;  // normalize the pool-size field
    if (!have_baseline) {
      baseline = report;
      have_baseline = true;
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_reports(baseline, report);
  }
}

TEST(PorCrossCheckSource, ExhaustiveSourceCertifies) {
  // The harness-level cross-check runs the full and reduced trees from the
  // family's own factory and they must agree on the (empty) violation set.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.persistent = true;
  const auto cross = api::Harness{}.crosscheck_por(
      api::family("maxscan"), spec, api::exhaustive_explorer(opts));
  EXPECT_TRUE(cross.agree());
  EXPECT_TRUE(cross.full.ok());
  EXPECT_TRUE(cross.reduced.ok());
  EXPECT_GT(cross.full.executions, 0u);
}

TEST(PorCrossCheckSource, AdversarialSourcesRejectedLoudly) {
  // crosscheck_por certifies the exhaustive tree; handing it any adversarial
  // or driver source must throw, not silently "pass" a check that never ran.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  const api::Harness harness;
  for (const api::ScheduleSource& source :
       {api::crash_restart(), api::jittered(), api::coverage_fuzzer(1, 4),
        api::round_robin(), api::seeded_random()}) {
    SCOPED_TRACE(source.name);
    EXPECT_THROW(static_cast<void>(harness.crosscheck_por(
                     api::family("maxscan"), spec, source)),
                 invariant_error);
  }
}

TEST(ScenarioSweep, AdversarialSourcesSweepInParallel) {
  // The new sources compose with the parallel grid runner like any other:
  // per-spec reports identical to serial runs, in any worker interleaving.
  const api::Harness harness;
  const auto grid = maxscan_grid();
  runtime::CrashPlan plan;
  plan.crashes = 1;
  plan.restart = true;
  const auto sweep = harness.run_scenario_sweep(
      api::family("maxscan"), grid, api::crash_restart(plan), {}, 4);
  ASSERT_EQ(sweep.reports.size(), grid.size());
  EXPECT_TRUE(sweep.ok()) << sweep.summary();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = harness.run_scenario(api::family("maxscan"), grid[i],
                                             api::crash_restart(plan));
    EXPECT_EQ(sweep.reports[i].summary(), serial.summary()) << i;
  }
}

TEST(ScenarioSweep, FuzzerSourceRejectsCountsOnlyRecording) {
  // Coverage signatures come from the step-info log, which kCountsOnly
  // discards; the conflict must be rejected loudly.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.recording = runtime::RecordingMode::kCountsOnly;
  EXPECT_THROW(static_cast<void>(api::Harness{}.run_scenario(
                   api::family("simple-oneshot"), spec,
                   api::coverage_fuzzer(1, 4))),
               invariant_error);
}

TEST(ScenarioSweep, ExhaustiveSourceSweepsInParallel) {
  // The explorer source also fans out: each worker runs its own exploration.
  const api::Harness harness;
  std::vector<api::ScenarioSpec> grid;
  for (int n : {2, 2, 2}) {
    api::ScenarioSpec spec;
    spec.n = n;
    grid.push_back(spec);
  }
  verify::ExploreOptions opts;
  opts.por = true;
  const auto sweep = harness.run_scenario_sweep(
      api::family("simple-oneshot"), grid, api::exhaustive_explorer(opts), {},
      3);
  EXPECT_TRUE(sweep.ok()) << sweep.summary();
  for (const auto& rep : sweep.reports) {
    EXPECT_GT(rep.executions, 0u);
    EXPECT_GT(rep.nodes, 0u);
  }
}

}  // namespace
