// Tests: exhaustive execution exploration (model checking).
//
// The crown jewels: EVERY interleaving of the simple algorithm (n = 2, 3)
// and of Algorithm 4 (n = 2) satisfies the timestamp property — statements
// that random testing cannot certify.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "native/recorder.hpp"
#include "verify/explorer.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;

// Builds an exploration instance of engine E with n one-call processes: a
// fresh system plus a check of the timestamp property on its own history.
// The check owns the instance, whose engine and recorder the programs use.
template <class E>
verify::ExplorationInstance engine_instance(int n) {
  auto owner = std::make_shared<api::EngineInstance<E>>(
      api::ScenarioSpec{.n = n}, api::Backend::kSim);
  verify::ExplorationInstance inst;
  inst.sys = owner->take_system();
  inst.check = [owner, n]() -> std::optional<std::string> {
    const auto records = owner->records();
    if (static_cast<int>(records.size()) != n) {
      return "expected " + std::to_string(n) + " calls, saw " +
             std::to_string(records.size());
    }
    auto report = verify::check_timestamp_property(records, core::Compare{});
    if (!report.ok()) return report.to_string();
    return std::nullopt;
  };
  return inst;
}

verify::ExplorationInstance simple_instance(int n) {
  return engine_instance<api::SimpleEngine>(n);
}

verify::ExplorationInstance sqrt_instance(int n) {
  return engine_instance<api::SqrtEngine>(n);
}

TEST(Explorer, CountsInterleavingsOfIndependentPrograms) {
  // Two processes with 3 steps each (simple algorithm, n=2 has m=1 register:
  // read + write + read): C(6,3) = 20 interleavings.
  auto result = verify::explore_all_executions(
      []() { return simple_instance(2); });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 20u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
  EXPECT_EQ(result.max_depth_seen, 6u);
}

TEST(Explorer, SimpleAlgorithmExhaustiveN3) {
  // n=3: m=2 registers, 4 steps per process: 12!/(4!4!4!) = 34650.
  auto result = verify::explore_all_executions(
      []() { return simple_instance(3); });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 34650u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

TEST(Explorer, SqrtAlgorithmExhaustiveN2) {
  // Algorithm 4, two processes: every interleaving (scan retries make the
  // tree irregular — the explorer handles variable-length branches).
  auto result = verify::explore_all_executions(
      []() { return sqrt_instance(2); });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(result.executions, 100u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

TEST(Explorer, SqrtAlgorithmBudgetedN3) {
  // n=3 is too large to exhaust; a budgeted prefix of the tree still checks
  // tens of thousands of complete executions.
  verify::ExploreOptions opts;
  opts.max_executions = 20000;
  auto result = verify::explore_all_executions(
      []() { return sqrt_instance(3); }, opts);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 20000u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

using BrokenSys = runtime::System<std::int64_t>;

// A broken "timestamp object" call: returns the constant 0. A free-function
// coroutine (parameters live in the frame; capturing coroutine lambdas are
// unsafe — see the note in core/sqrt_oneshot.hpp).
runtime::ProcessTask broken_constant_program(
    BrokenSys::Ctx& ctx, int pid, native::CallArena<std::int64_t>* log) {
  const auto inv = ctx.stamp();
  (void)co_await ctx.read(0);
  log->record({pid, 0, 0, inv, ctx.stamp()});  // constant timestamp
  ctx.note_call_complete();
}

TEST(Explorer, DetectsInjectedViolation) {
  // The explorer must find schedules where one call strictly precedes the
  // other and flag the constant timestamps.
  using Sys = BrokenSys;
  auto factory = []() {
    auto log = std::make_shared<native::HistoryRecorder<std::int64_t>>(2);
    std::vector<Sys::Program> programs;
    for (int p = 0; p < 2; ++p) {
      programs.push_back([p, log](Sys::Ctx& ctx) {
        return broken_constant_program(ctx, p, &log->arena(p));
      });
    }
    verify::ExplorationInstance inst;
    inst.sys = std::make_unique<Sys>(1, std::int64_t{0}, std::move(programs));
    inst.check = [log]() -> std::optional<std::string> {
      auto report =
          verify::check_timestamp_property(log->merged(), core::Compare{});
      if (!report.ok()) return report.to_string();
      return std::nullopt;
    };
    return inst;
  };
  auto result = verify::explore_all_executions(factory);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.executions, 2u);  // two interleavings of 1 step each
  // At least one interleaving orders the calls (response before invocation)
  // and must be flagged. (Invocation stamps are taken when a coroutine first
  // runs, so interleavings in which both processes were inspected before
  // stepping have overlapping calls and carry no obligation.)
  EXPECT_GE(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("[schedule:"), std::string::npos);
}

// A program that never terminates: writes register 0 forever.
runtime::ProcessTask endless_writer_program(BrokenSys::Ctx& ctx) {
  std::int64_t v = 0;
  for (;;) {
    co_await ctx.write(0, ++v);
  }
}

TEST(Explorer, DepthGuardStopsNonTerminatingPrograms) {
  // Before the guard became a runtime check this looped until the assertion
  // threw (or forever, had assertions been compiled out). Now the explorer
  // must stop at max_depth, record a violation, and report depth_exceeded.
  auto factory = []() {
    std::vector<BrokenSys::Program> programs;
    programs.push_back(
        [](BrokenSys::Ctx& ctx) { return endless_writer_program(ctx); });
    verify::ExplorationInstance inst;
    inst.sys =
        std::make_unique<BrokenSys>(1, std::int64_t{0}, std::move(programs));
    inst.check = []() -> std::optional<std::string> { return std::nullopt; };
    return inst;
  };
  verify::ExploreOptions opts;
  opts.max_depth = 50;
  auto result = verify::explore_all_executions(factory, opts);
  EXPECT_TRUE(result.depth_exceeded);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.executions, 0u);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.max_depth_seen, 50u);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("max_depth 50"), std::string::npos)
      << result.violations[0];
  // The message names the worker that hit the guard and the length of the
  // prefix it owned — one line is enough to diagnose a hang even when the
  // cutoff fires on a parallel exploration.
  EXPECT_NE(result.violations[0].find("[worker 0, prefix 50]"),
            std::string::npos)
      << result.violations[0];
  // The message names the processes that were still live at the cutoff, not
  // just the schedule prefix.
  EXPECT_NE(result.violations[0].find("[live pids: 0]"), std::string::npos)
      << result.violations[0];
}

TEST(Explorer, RespectsExecutionBudget) {
  verify::ExploreOptions opts;
  opts.max_executions = 5;
  auto result = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 5u);
}

// -- partial-order reduction -------------------------------------------------

TEST(Por, ReducesSimpleAlgorithmTreeAndStaysClean) {
  verify::ExploreOptions opts;
  opts.por = true;
  const auto full = verify::explore_all_executions(
      []() { return simple_instance(3); });
  const auto reduced = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  EXPECT_TRUE(full.ok());
  EXPECT_TRUE(reduced.ok()) << reduced.violations.front();
  EXPECT_LT(reduced.nodes, full.nodes);
  EXPECT_LT(reduced.executions, full.executions);
  EXPECT_GT(reduced.sleep_pruned, 0u);
  EXPECT_EQ(full.sleep_pruned, 0u);  // full DFS never prunes
}

TEST(Por, ReducesSqrtAlgorithmTreeAndStaysClean) {
  verify::ExploreOptions opts;
  opts.por = true;
  const auto full = verify::explore_all_executions(
      []() { return sqrt_instance(2); });
  const auto reduced = verify::explore_all_executions(
      []() { return sqrt_instance(2); }, opts);
  EXPECT_TRUE(full.ok());
  EXPECT_TRUE(reduced.ok()) << reduced.violations.front();
  EXPECT_FALSE(reduced.budget_exhausted);
  EXPECT_LT(reduced.nodes, full.nodes);
}

// A seeded-buggy "timestamp object": each process reads the shared counter
// and writes back +1, returning what it wrote — two processes that read
// before either writes return the SAME timestamp. The check is derived from
// register values only (no happens-before stamps), so its verdict — and its
// message — is a function of the schedule alone, which is what makes the
// full-vs-reduced violation sets comparable modulo schedule suffix.
runtime::ProcessTask racy_increment_program(
    BrokenSys::Ctx& ctx, int pid,
    std::shared_ptr<std::vector<std::int64_t>> returned) {
  const std::int64_t seen = co_await ctx.read(0);
  co_await ctx.write(0, seen + 1);
  (*returned)[static_cast<std::size_t>(pid)] = seen + 1;
  ctx.note_call_complete();
}

verify::InstanceFactory racy_increment_factory() {
  return []() {
    auto returned = std::make_shared<std::vector<std::int64_t>>(2, -1);
    std::vector<BrokenSys::Program> programs;
    for (int p = 0; p < 2; ++p) {
      programs.push_back([p, returned](BrokenSys::Ctx& ctx) {
        return racy_increment_program(ctx, p, returned);
      });
    }
    verify::ExplorationInstance inst;
    inst.sys =
        std::make_unique<BrokenSys>(1, std::int64_t{0}, std::move(programs));
    inst.check = [returned]() -> std::optional<std::string> {
      if ((*returned)[0] == (*returned)[1]) {
        return "duplicate timestamp " + std::to_string((*returned)[0]);
      }
      return std::nullopt;
    };
    return inst;
  };
}

TEST(Por, CrossCheckFindsIdenticalViolationSetOnSeededBuggyInstance) {
  const auto cc = verify::crosscheck_por(racy_increment_factory());
  // Both trees must convict the instance, with the same canonical set.
  EXPECT_FALSE(cc.full.ok());
  EXPECT_FALSE(cc.reduced.ok());
  EXPECT_TRUE(cc.agree())
      << "only_full=" << (cc.only_full.empty() ? "" : cc.only_full.front())
      << " only_reduced="
      << (cc.only_reduced.empty() ? "" : cc.only_reduced.front());
  // The reduced tree proves the same verdict on strictly less work: the full
  // tree sees the duplicate in 4 of its 6 interleavings, the reduced tree in
  // at least one representative of that equivalence class.
  EXPECT_LT(cc.reduced.nodes, cc.full.nodes);
  EXPECT_EQ(cc.full.executions, 6u);
  EXPECT_GE(cc.reduced.violations.size(), 1u);
  EXPECT_NE(cc.reduced.violations[0].find("duplicate timestamp 1"),
            std::string::npos)
      << cc.reduced.violations[0];
}

TEST(Por, CrossCheckAgreesOnCleanInstances) {
  const auto cc = verify::crosscheck_por([]() { return simple_instance(2); });
  EXPECT_TRUE(cc.full.ok());
  EXPECT_TRUE(cc.reduced.ok());
  EXPECT_TRUE(cc.agree());
  EXPECT_EQ(cc.full.executions, 20u);
  EXPECT_LT(cc.reduced.nodes, cc.full.nodes);
}

TEST(Por, StripScheduleSuffix) {
  EXPECT_EQ(verify::strip_schedule_suffix("boom [schedule: 0 1 1]"), "boom");
  EXPECT_EQ(verify::strip_schedule_suffix("no suffix here"),
            "no suffix here");
}

// -- persistent sets ---------------------------------------------------------

TEST(Persistent, ReducesNodesBeyondSleepSetsAndStaysClean) {
  // Sleep sets prune equivalent subtrees after the siblings branched; the
  // persistent set stops read-read-independent siblings from branching at
  // all. The layered reduction must certify the same (clean) verdict on
  // strictly fewer nodes, and report the deferred branches.
  verify::ExploreOptions opts;
  opts.por = true;
  const auto sleep_only = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  opts.persistent = true;
  const auto layered = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  EXPECT_TRUE(sleep_only.ok());
  EXPECT_TRUE(layered.ok()) << layered.violations.front();
  EXPECT_LT(layered.nodes, sleep_only.nodes);
  EXPECT_LE(layered.executions, sleep_only.executions);
  EXPECT_GT(layered.persistent_deferred, 0u);
  EXPECT_EQ(sleep_only.persistent_deferred, 0u);
}

TEST(Persistent, CrossCheckFindsIdenticalViolationSetOnSeededBuggyInstance) {
  // Same certification bar as the sleep-set cross-check: the persistent-set
  // tree must convict the seeded-buggy instance with the identical canonical
  // violation set, on less work than the sleep-set-only tree.
  verify::ExploreOptions opts;
  opts.persistent = true;
  const auto cc = verify::crosscheck_por(racy_increment_factory(), opts);
  EXPECT_FALSE(cc.full.ok());
  EXPECT_FALSE(cc.reduced.ok());
  EXPECT_TRUE(cc.agree())
      << "only_full=" << (cc.only_full.empty() ? "" : cc.only_full.front())
      << " only_reduced="
      << (cc.only_reduced.empty() ? "" : cc.only_reduced.front());
  EXPECT_LT(cc.reduced.nodes, cc.full.nodes);
  EXPECT_EQ(cc.full.executions, 6u);
}

TEST(Persistent, RequiresPor) {
  verify::ExploreOptions opts;
  opts.persistent = true;  // without por
  EXPECT_THROW(verify::explore_all_executions(
                   []() { return simple_instance(2); }, opts),
               stamped::invariant_error);
}

// -- parallel work-stealing DFS ----------------------------------------------

TEST(Parallel, MatchesSerialOnCleanFullTree) {
  // The work-stealing exploration visits the same tree as the serial DFS:
  // node, execution, prune and depth counters are set-derived, so a complete
  // parallel run must report exactly the serial numbers.
  const auto serial = verify::explore_all_executions(
      []() { return simple_instance(3); });
  verify::ExploreOptions opts;
  opts.threads = 4;
  const auto parallel = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(parallel.ok()) << parallel.violations.front();
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.nodes, serial.nodes);
  EXPECT_EQ(parallel.max_depth_seen, serial.max_depth_seen);
  EXPECT_EQ(parallel.workers, 4);
  EXPECT_EQ(serial.workers, 1);
  EXPECT_FALSE(parallel.budget_exhausted);
}

TEST(Parallel, MatchesSerialUnderLayeredReduction) {
  // Reduction decisions (sleep sets, persistent sets) are functions of the
  // node alone, so the reduced tree is also identical under stealing.
  verify::ExploreOptions opts;
  opts.por = true;
  opts.persistent = true;
  const auto serial = verify::explore_all_executions(
      []() { return sqrt_instance(2); }, opts);
  opts.threads = 4;
  const auto parallel = verify::explore_all_executions(
      []() { return sqrt_instance(2); }, opts);
  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(parallel.ok()) << parallel.violations.front();
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.nodes, serial.nodes);
  EXPECT_EQ(parallel.sleep_pruned, serial.sleep_pruned);
  EXPECT_EQ(parallel.persistent_deferred, serial.persistent_deferred);
}

TEST(Parallel, FindsInjectedViolationSetEqualToSerial) {
  // Violation MERGE determinism: the parallel run reports its violations
  // sorted; the serial run reports DFS order. As sets they must coincide.
  const auto serial =
      verify::explore_all_executions(racy_increment_factory());
  verify::ExploreOptions opts;
  opts.threads = 4;
  const auto parallel =
      verify::explore_all_executions(racy_increment_factory(), opts);
  EXPECT_FALSE(serial.ok());
  EXPECT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.nodes, serial.nodes);
  std::vector<std::string> serial_sorted = serial.violations;
  std::sort(serial_sorted.begin(), serial_sorted.end());
  EXPECT_EQ(parallel.violations, serial_sorted);
}

TEST(Parallel, RespectsExecutionBudgetExactly) {
  // The budget is an atomic claim: the merged execution count lands exactly
  // on the cap even with four workers racing for the last claims.
  verify::ExploreOptions opts;
  opts.max_executions = 500;
  opts.threads = 4;
  const auto result = verify::explore_all_executions(
      []() { return simple_instance(3); }, opts);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 500u);
}

TEST(Parallel, DepthGuardStopsAllWorkersAndNamesOne) {
  auto factory = []() {
    std::vector<BrokenSys::Program> programs;
    programs.push_back(
        [](BrokenSys::Ctx& ctx) { return endless_writer_program(ctx); });
    verify::ExplorationInstance inst;
    inst.sys =
        std::make_unique<BrokenSys>(1, std::int64_t{0}, std::move(programs));
    inst.check = []() -> std::optional<std::string> { return std::nullopt; };
    return inst;
  };
  verify::ExploreOptions opts;
  opts.max_depth = 64;
  opts.threads = 4;
  const auto result = verify::explore_all_executions(factory, opts);
  EXPECT_TRUE(result.depth_exceeded);
  ASSERT_GE(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("max_depth 64"), std::string::npos)
      << result.violations[0];
  EXPECT_NE(result.violations[0].find("[worker "), std::string::npos)
      << result.violations[0];
  EXPECT_NE(result.violations[0].find("prefix 64"), std::string::npos)
      << result.violations[0];
}

TEST(Parallel, CrossCheckSerialFullVersusParallelReduced) {
  // The acceptance-grade cross-check: the serial full DFS as the reference
  // tree against the parallel, sleep+persistent-reduced tree — identical
  // canonical violation sets on a seeded-buggy instance.
  verify::ExploreOptions opts;
  opts.persistent = true;
  opts.threads = 4;
  const auto cc = verify::crosscheck_por(racy_increment_factory(), opts);
  EXPECT_FALSE(cc.full.ok());
  EXPECT_FALSE(cc.reduced.ok());
  EXPECT_TRUE(cc.agree())
      << "only_full=" << (cc.only_full.empty() ? "" : cc.only_full.front())
      << " only_reduced="
      << (cc.only_reduced.empty() ? "" : cc.only_reduced.front());
  EXPECT_EQ(cc.full.workers, 1);
  EXPECT_EQ(cc.reduced.workers, 4);
  EXPECT_LT(cc.reduced.nodes, cc.full.nodes);
}

}  // namespace
