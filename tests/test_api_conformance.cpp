// The single value-parameterized conformance suite: every family registered
// in api::registry() satisfies the weak timestamp property (paper, Section 2)
// under every schedule source, checked through the family's own comparator
// and pair filter. This replaces the per-family property sweeps that used to
// be hand-wired in test_maxscan / test_simple_oneshot / test_bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/footprint.hpp"
#include "api/harness.hpp"
#include "api/registry.hpp"
#include "shard/sharded_instance.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;

/// An erased log's timestamp handle as a typed timestamp, as api/harness.cpp
/// adapts it, so the typed checkers run over any family's history.
struct OpaqueTs {
  std::size_t idx = 0;
  const api::GenericCallLog* log = nullptr;

  friend bool operator==(const OpaqueTs&, const OpaqueTs&) = default;

  [[nodiscard]] std::string repr() const { return log->ts_repr(idx); }
};

struct OpaqueCompare {
  [[nodiscard]] bool operator()(const OpaqueTs& a, const OpaqueTs& b) const {
    return a.log->before(a.idx, b.idx);
  }
};

std::vector<runtime::CallRecord<OpaqueTs>> opaque_records(
    const api::GenericCallLog& log) {
  std::vector<runtime::CallRecord<OpaqueTs>> out;
  for (const auto& r : log.records) {
    out.push_back({r.pid, r.call_index, OpaqueTs{r.ts, &log}, r.invoked_at,
                   r.responded_at});
  }
  return out;
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& fam : api::registry()) names.push_back(fam.name);
  return names;
}

class FamilyConformance : public ::testing::TestWithParam<std::string> {
 protected:
  const api::TimestampFamily& fam() const { return api::family(GetParam()); }

  /// Scenario sizes: one-shot families run one call per process; long-lived
  /// families also run multi-call scenarios. The ranges cover (and slightly
  /// exceed) the per-family sweeps this suite replaced: n up to 64 and 6
  /// calls per process.
  std::vector<api::ScenarioSpec> specs() const {
    std::vector<api::ScenarioSpec> result;
    for (int n : {2, 3, 5, 8, 16, 32, 64}) {
      for (int calls : {1, 3, 6}) {
        api::ScenarioSpec spec;
        spec.n = n;
        spec.calls_per_process = calls;
        if (fam().supports(spec)) result.push_back(spec);
      }
    }
    return result;
  }
};

TEST_P(FamilyConformance, TimestampPropertyUnderDeterministicSchedules) {
  const api::Harness harness;
  for (api::ScenarioSpec spec : specs()) {
    for (const api::ScheduleSource& source :
         {api::round_robin(), api::sequential(), api::staggered(2),
          api::covering_adversary()}) {
      const auto report = harness.run_scenario(fam(), spec, source);
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_TRUE(report.all_finished) << report.summary();
      EXPECT_EQ(report.calls,
                static_cast<std::uint64_t>(spec.total_calls()))
          << report.summary();
    }
  }
}

TEST_P(FamilyConformance, TimestampPropertyUnderRandomSchedules) {
  const api::Harness harness;
  for (api::ScenarioSpec spec : specs()) {
    for (std::uint64_t seed : {101u, 202u, 303u}) {
      spec.seed = seed;
      const auto report =
          harness.run_scenario(fam(), spec, api::seeded_random());
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_TRUE(report.all_finished) << report.summary();
      EXPECT_EQ(report.calls,
                static_cast<std::uint64_t>(spec.total_calls()))
          << report.summary();
    }
  }
}

TEST_P(FamilyConformance, SpaceStaysWithinDeclaredBound) {
  const api::Harness harness;
  for (api::ScenarioSpec spec : specs()) {
    const auto report = harness.run_scenario(fam(), spec,
                                             api::seeded_random(),
                                             api::Checkers::none());
    EXPECT_LE(report.registers_written, report.registers_allocated)
        << report.summary();
  }
}

TEST_P(FamilyConformance, SpecRecordingModeReachesEveryBuiltSystem) {
  // ScenarioSpec::recording is applied where the system is built, so
  // make(spec), factory(spec) and make_sharded(spec) all honour it. A
  // kCountsOnly build runs the identical computation as the kFull build
  // under one deterministic schedule (same step, call and register counts)
  // and keeps no per-step record.
  constexpr std::uint64_t kMaxSteps = std::uint64_t{1} << 22;
  constexpr auto kCountsOnly = runtime::RecordingMode::kCountsOnly;
  for (api::ScenarioSpec spec : specs()) {
    const std::string size = "n=" + std::to_string(spec.n) +
                             " calls=" + std::to_string(spec.calls_per_process);
    auto full = fam().make(spec);
    spec.recording = kCountsOnly;
    auto counts = fam().make(spec);
    ASSERT_EQ(counts->system().recording_mode(), kCountsOnly) << size;
    EXPECT_EQ(fam().factory(spec)()->recording_mode(), kCountsOnly) << size;

    runtime::run_round_robin(full->system(), kMaxSteps);
    runtime::run_round_robin(counts->system(), kMaxSteps);
    ASSERT_TRUE(full->system().all_finished()) << size;
    ASSERT_TRUE(counts->system().all_finished()) << size;
    EXPECT_EQ(counts->system().steps_taken(), full->system().steps_taken())
        << size;
    EXPECT_EQ(counts->system().calls_completed_total(),
              full->system().calls_completed_total())
        << size;
    EXPECT_EQ(counts->system().registers_written(),
              full->system().registers_written())
        << size;
    EXPECT_TRUE(counts->system().step_infos().empty()) << size;
  }

  api::ScenarioSpec sharded;
  sharded.n = 3;
  sharded.shard.shards = 1;
  sharded.recording = kCountsOnly;
  EXPECT_EQ(fam().make_sharded(sharded)->system().recording_mode(),
            kCountsOnly);
}

TEST_P(FamilyConformance, TimestampPropertyInExploredInterleavings) {
  // Model check of the smallest scenario. For the integer-register families
  // the schedule tree fits the budget, so the property is certified in
  // EVERY interleaving (asserted via budget_exhausted); the record-register
  // families (Algorithm 4 variants) have deeper trees and are checked on a
  // budget-capped prefix here — their dedicated exhaustive runs live in
  // test_explorer.cpp / test_bounded.cpp.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.max_executions = 1u << 16;
  const auto report = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.all_finished) << "depth budget hit: "
                                   << report.summary();
  EXPECT_GT(report.executions, 0u);
  const bool record_registers =
      fam().name == "sqrt-oneshot" || fam().name == "growing-oneshot";
  if (!record_registers) {
    EXPECT_FALSE(report.budget_exhausted)
        << "tree no longer fits the budget: " << report.summary();
  }
}

TEST_P(FamilyConformance, PorExplorerVisitsFewerNodesAndAgrees) {
  // The sleep-set reduced tree must certify the same n=2 model check as the
  // full DFS — identical (empty) violation set — while visiting strictly
  // fewer interior nodes. Exception: fetchadd serializes every step through
  // its single counter register, so all transitions are pairwise dependent
  // and no reduction exists; the reduced tree may only match the full one.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.max_executions = 1u << 17;
  const auto full = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));
  opts.por = true;
  const auto reduced = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));

  EXPECT_TRUE(full.ok()) << full.summary();
  EXPECT_TRUE(reduced.ok()) << reduced.summary();
  // The reduced tree must fit comfortably; the full tree may hit the budget
  // on the record-register families (growing-oneshot's pool makes its raw
  // n=2 tree exceed 2^17 executions) — its node count is then a lower bound,
  // which only strengthens the strict comparison below.
  if (fam().name != "growing-oneshot") {
    EXPECT_FALSE(full.budget_exhausted) << full.summary();
  }
  EXPECT_FALSE(reduced.budget_exhausted) << reduced.summary();
  EXPECT_EQ(full.violations, reduced.violations);
  EXPECT_GT(reduced.executions, 0u);
  EXPECT_LE(reduced.executions, full.executions);
  if (fam().name == "fetchadd") {
    EXPECT_EQ(reduced.nodes, full.nodes) << reduced.summary();
  } else {
    EXPECT_LT(reduced.nodes, full.nodes)
        << "POR found no reduction: " << reduced.summary() << " vs "
        << full.summary();
    EXPECT_GT(reduced.sleep_pruned, 0u) << reduced.summary();
  }
}

TEST_P(FamilyConformance, ParallelExplorerMatchesSerial) {
  // The work-stealing parallel DFS must certify exactly the serial result on
  // the n=2 model check of every family: same merged (empty) violation set,
  // same execution and node counts. Run reduced (sleep + persistent sets) so
  // even the record-register families' trees complete within the budget.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.max_executions = 1u << 17;
  opts.por = true;
  opts.persistent = true;
  const auto serial = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));
  opts.threads = 4;
  const auto parallel = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));

  EXPECT_TRUE(serial.ok()) << serial.summary();
  EXPECT_TRUE(parallel.ok()) << parallel.summary();
  EXPECT_FALSE(serial.budget_exhausted) << serial.summary();
  EXPECT_FALSE(parallel.budget_exhausted) << parallel.summary();
  EXPECT_EQ(serial.explore_workers, 1) << serial.summary();
  EXPECT_EQ(parallel.explore_workers, 4) << parallel.summary();
  EXPECT_EQ(parallel.executions, serial.executions)
      << parallel.summary() << " vs " << serial.summary();
  EXPECT_EQ(parallel.nodes, serial.nodes)
      << parallel.summary() << " vs " << serial.summary();
  EXPECT_EQ(parallel.sleep_pruned, serial.sleep_pruned);
  EXPECT_EQ(parallel.persistent_deferred, serial.persistent_deferred);
  EXPECT_EQ(parallel.violations, serial.violations);
}

TEST_P(FamilyConformance, PersistentSetsExploreNoMoreNodesAndAgree) {
  // Layering persistent sets on the sleep sets must never grow the tree, and
  // must certify the identical (empty) violation set. fetchadd serializes
  // every step through its single counter register — all pending ops
  // conflict, so the persistent closure is the full candidate set and the
  // trees coincide; every other family must defer at least one branch.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.max_executions = 1u << 17;
  opts.por = true;
  const auto sleep_only = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));
  opts.persistent = true;
  const auto layered = api::Harness{}.run_scenario(
      fam(), spec, api::exhaustive_explorer(opts));

  EXPECT_TRUE(sleep_only.ok()) << sleep_only.summary();
  EXPECT_TRUE(layered.ok()) << layered.summary();
  EXPECT_FALSE(layered.budget_exhausted) << layered.summary();
  EXPECT_EQ(layered.violations, sleep_only.violations);
  EXPECT_LE(layered.nodes, sleep_only.nodes)
      << layered.summary() << " vs " << sleep_only.summary();
  EXPECT_LE(layered.executions, sleep_only.executions);
  if (fam().name == "fetchadd") {
    EXPECT_EQ(layered.nodes, sleep_only.nodes) << layered.summary();
    EXPECT_EQ(layered.persistent_deferred, 0u) << layered.summary();
  } else {
    EXPECT_LT(layered.nodes, sleep_only.nodes)
        << "persistent sets found no reduction: " << layered.summary()
        << " vs " << sleep_only.summary();
    EXPECT_GT(layered.persistent_deferred, 0u) << layered.summary();
  }
}

TEST_P(FamilyConformance, FootprintLintPasses) {
  // Every family declares its register-ownership discipline
  // (api::FootprintSpec); the lint diffs it against observed executions
  // (both sequential orders, round robin and seeded random schedules) and
  // must come back clean: no write outside a declared writer mask, at every
  // size up to n = 16 and every call count in {1, 2, 3, 6} the family
  // supports.
  for (int n : {2, 3, 4, 5, 8, 16}) {
    for (int calls : {1, 2, 3, 6}) {
      api::ScenarioSpec spec;
      spec.n = n;
      spec.calls_per_process = calls;
      if (!fam().supports(spec)) continue;
      const analysis::LintReport report =
          analysis::lint_footprints(fam(), spec);
      EXPECT_TRUE(report.ok()) << "n=" << n << " calls=" << calls << ": "
                               << report.to_string();
      EXPECT_GT(report.observed.complete_runs, 0u);
    }
  }
}

TEST_P(FamilyConformance, ExactFootprintsExploreNoMoreNodesAndAgree) {
  // ExploreOptions::exact_footprints swaps the pending-op persistent-set
  // closure for min(static write-map closure, pending-op closure), so the
  // footprint-driven tree can never branch wider at any node — globally it
  // must visit no more nodes than the heuristic tree, find the identical
  // (empty) violation set, and pass the full-vs-reduced cross-check.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 1;
  verify::ExploreOptions opts;
  opts.max_executions = 1u << 17;
  opts.por = true;
  opts.persistent = true;
  const api::Harness harness;
  const auto heuristic =
      harness.run_scenario(fam(), spec, api::exhaustive_explorer(opts));
  opts.exact_footprints = true;
  const auto exact =
      harness.run_scenario(fam(), spec, api::exhaustive_explorer(opts));

  EXPECT_TRUE(heuristic.ok()) << heuristic.summary();
  EXPECT_TRUE(exact.ok()) << exact.summary();
  EXPECT_FALSE(exact.budget_exhausted) << exact.summary();
  EXPECT_EQ(exact.violations, heuristic.violations);
  EXPECT_LE(exact.nodes, heuristic.nodes)
      << exact.summary() << " vs " << heuristic.summary();

  const verify::PorCrossCheck cc = harness.crosscheck_por(
      fam(), spec, api::exhaustive_explorer(opts));
  EXPECT_TRUE(cc.agree())
      << "only_full=" << cc.only_full.size()
      << " only_reduced=" << cc.only_reduced.size();
}

TEST_P(FamilyConformance, TimestampPropertyUnderCrashRestart) {
  // The crash/restart adversary kills processes mid-call; crashed calls
  // never complete, so they never enter the history — the property must hold
  // among the completed calls, and every survivor (never crashed, or
  // restarted) must finish: the wait-freedom obligation. Restart is enabled
  // only for long-lived families: a restarted one-shot process re-runs its
  // call against a register pool sized for the original call count.
  const api::Harness harness;
  runtime::CrashPlan plan;
  plan.crashes = 2;
  plan.restart = fam().lifetime == api::Lifetime::kLongLived;
  std::uint64_t crashes_seen = 0;
  for (api::ScenarioSpec spec : specs()) {
    if (plan.restart && fam().name == "bounded") {
      // Restart re-runs the victim's whole program, so one process can
      // perform up to (crashes+1)*calls_per_process calls — beyond the
      // recycling window the auto modulus K = 2*calls+1 is sized for, where
      // the unconditional property legitimately fails. Size the universe for
      // the inflated count; the recycling regime under crashes is covered by
      // CrashRestartConformance.BoundedLabelRecyclingSurvivesCrashes below.
      spec.universe_bound =
          2 * (plan.crashes + 1) * spec.calls_per_process + 1;
    }
    for (std::uint64_t seed : {41u, 42u}) {
      spec.seed = seed;
      const auto report =
          harness.run_scenario(fam(), spec, api::crash_restart(plan));
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_TRUE(report.survivors_finished) << report.summary();
      EXPECT_EQ(report.all_finished, report.crashed_down == 0)
          << report.summary();
      if (plan.restart) {
        EXPECT_EQ(report.restarts, report.crashes) << report.summary();
      }
      crashes_seen += report.crashes;
    }
  }
  // Wait-freedom may outrun individual crash events (victims finish first),
  // but across the whole grid the adversary must actually have killed.
  EXPECT_GT(crashes_seen, 0u);
}

TEST_P(FamilyConformance, TimestampPropertyUnderJitter) {
  // Stall windows only reorder steps, so every verdict of the clean sources
  // must survive: property holds, everybody finishes, every call completes.
  const api::Harness harness;
  std::uint64_t stalls_seen = 0;
  for (api::ScenarioSpec spec : specs()) {
    const auto report = harness.run_scenario(fam(), spec, api::jittered());
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.all_finished) << report.summary();
    EXPECT_EQ(report.calls,
              static_cast<std::uint64_t>(spec.total_calls()))
        << report.summary();
    EXPECT_GE(report.ticks, report.steps) << report.summary();
    stalls_seen += report.stalls;
  }
  // Small scenarios may dodge every Bernoulli stall; the grid must not.
  EXPECT_GT(stalls_seen, 0u);
}

TEST_P(FamilyConformance, TimestampPropertyUnderCoverageFuzzer) {
  // Every fuzzed execution is a legal schedule, so every execution must pass
  // the checkers; the search must reach interleaving signatures and retain
  // mutation parents.
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = fam().max_calls_per_process == 0 ? 2 : 1;
  const auto report = api::Harness{}.run_scenario(
      fam(), spec, api::coverage_fuzzer(/*seed=*/7, /*budget=*/24));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.all_finished) << report.summary();
  EXPECT_EQ(report.executions, 24u);
  EXPECT_GT(report.coverage_signatures, 0u) << report.summary();
  EXPECT_GE(report.corpus_size, 1u) << report.summary();
  EXPECT_EQ(report.calls, 24u * static_cast<std::uint64_t>(
                                    spec.total_calls()))
      << report.summary();
}

TEST_P(FamilyConformance, NativeBackendSatisfiesProperty) {
  // The native backend is a first-class peer of the simulator: the same
  // scenario grid, run on real OS threads over AtomicMemory, with the
  // recorded history checked by the identical property checkers. Interleaving
  // comes from the OS scheduler, so repeat each spec a few times; n is capped
  // (real threads per run are bounded by native_threads anyway, and the
  // property/checker machinery is size-agnostic).
  const api::Harness harness;
  for (api::ScenarioSpec spec : specs()) {
    if (spec.n > 16) continue;  // keep the battery fast; kinds don't change
    spec.backend = api::Backend::kNative;
    spec.native_threads = 4;
    for (int trial = 0; trial < 3; ++trial) {
      const auto report = harness.run_scenario(fam(), spec, api::native_os());
      EXPECT_TRUE(report.ok()) << fam().name << ": " << report.summary();
      EXPECT_TRUE(report.all_finished) << report.summary();
      EXPECT_EQ(report.calls,
                static_cast<std::uint64_t>(spec.total_calls()))
          << report.summary();
      EXPECT_EQ(report.native_threads, std::min(4, spec.n))
          << report.summary();
      std::uint64_t thread_sum = 0;
      for (const std::uint64_t c : report.native_thread_calls) {
        thread_sum += c;
      }
      EXPECT_EQ(thread_sum, report.calls) << report.summary();
      EXPECT_EQ(report.retired_nodes, 0u) << report.summary();
    }
  }
}

TEST_P(FamilyConformance, FastCheckerAgreesWithQuadratic) {
  // The harness checks a log flagged total_order with the sweep forms. On
  // every schedule source's histories — restarts (call_index repeats) and
  // native runs included — they must return the quadratic checkers' reports
  // exactly. Every family but bounded declares a total order; the bounded
  // family's windowed compare and the sharded service's composed log must
  // stay unflagged, so they keep the quadratic path.
  const bool declared = fam().name != "bounded";
  runtime::CrashPlan plan;
  plan.crashes = 2;
  plan.restart = fam().lifetime == api::Lifetime::kLongLived;
  // fetchadd's calls are one step each: under the default bound of 24 steps
  // its victims mostly finish before they die, and nothing restarts.
  plan.max_victim_steps = 8;
  constexpr std::uint64_t kMaxSteps = std::uint64_t{1} << 22;
  std::uint64_t compared = 0;
  std::uint64_t repeated_call_index = 0;
  const auto expect_agree = [&](const api::GenericCallLog& log,
                                const std::string& where) {
    EXPECT_EQ(log.total_order, declared) << where;
    if (!log.total_order) return;
    const auto records = opaque_records(log);
    const auto quad =
        verify::check_timestamp_property(records, OpaqueCompare{});
    const auto sweep =
        verify::check_timestamp_property_sweep(records, OpaqueCompare{});
    EXPECT_TRUE(sweep == quad) << where << "\nsweep: " << sweep.to_string()
                               << "\nquadratic: " << quad.to_string();
    const auto mono_quad =
        verify::check_per_process_monotonicity(records, OpaqueCompare{});
    const auto mono_sweep =
        verify::check_per_process_monotonicity_sweep(records, OpaqueCompare{});
    EXPECT_TRUE(mono_sweep == mono_quad)
        << where << "\nsweep: " << mono_sweep.to_string()
        << "\nquadratic: " << mono_quad.to_string();
    std::vector<std::pair<int, int>> ids;
    for (const auto& r : log.records) ids.emplace_back(r.pid, r.call_index);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      ++repeated_call_index;
    }
    ++compared;
  };
  using Drive = std::function<void(runtime::ISystem&, util::Rng&)>;
  const std::vector<std::pair<std::string, Drive>> sources{
      {"round-robin",
       [&](runtime::ISystem& sys, util::Rng&) {
         runtime::run_round_robin(sys, kMaxSteps);
       }},
      {"random",
       [&](runtime::ISystem& sys, util::Rng& rng) {
         runtime::run_random(sys, rng, kMaxSteps);
       }},
      {"covering",
       [&](runtime::ISystem& sys, util::Rng& rng) {
         api::covering_adversary().drive(sys, rng, kMaxSteps);
       }},
      {"crash-restart",
       [&](runtime::ISystem& sys, util::Rng& rng) {
         (void)runtime::run_crash_restart(sys, rng, plan, kMaxSteps);
       }},
      {"jitter",
       [&](runtime::ISystem& sys, util::Rng& rng) {
         (void)runtime::run_jittered(sys, rng, runtime::JitterSpec{},
                                     kMaxSteps);
       }},
  };
  for (api::ScenarioSpec spec : specs()) {
    if (spec.n > 16) continue;  // keep the battery fast; kinds don't change
    const std::string size = " n=" + std::to_string(spec.n) +
                             " calls=" + std::to_string(spec.calls_per_process);
    for (const auto& [name, drive] : sources) {
      for (std::uint64_t seed : {5u, 6u}) {
        auto inst = fam().make(spec);
        util::Rng rng(seed);
        drive(inst->system(), rng);
        expect_agree(inst->calls(), name + size);
      }
    }
    api::ScenarioSpec native = spec;
    native.backend = api::Backend::kNative;
    auto inst = fam().make_native(native);
    (void)inst->run_native(4);
    expect_agree(inst->calls(), "native-os" + size);
  }

  api::ScenarioSpec one_shard;
  one_shard.n = 3;
  one_shard.calls_per_process = fam().max_calls_per_process == 0 ? 2 : 1;
  one_shard.shard.shards = 1;
  auto service = fam().make_sharded(one_shard);
  util::Rng rng(one_shard.seed);
  runtime::run_random(service->system(), rng, kMaxSteps);
  EXPECT_FALSE(service->composed_calls().total_order);
  expect_agree(service->shard_calls(0), "shard 0");

  if (declared) {
    EXPECT_GT(compared, 0u);
    if (plan.restart) {
      EXPECT_GT(repeated_call_index, 0u) << "no history held a restart";
    }
  }
}

TEST_P(FamilyConformance, DeclaredTotalOrderHoldsOnRecordedTimestamps) {
  // Lints the declaration the sweep checkers rest on, as FootprintLintPasses
  // lints the declared footprints: on one recorded history, the flagged
  // log's `before` must be irreflexive, asymmetric and transitive, and two
  // timestamps may be incomparable only when they are equal.
  api::ScenarioSpec spec;
  spec.n = fam().max_calls_per_process == 0 ? 4 : 32;
  spec.calls_per_process = fam().max_calls_per_process == 0 ? 8 : 1;
  ASSERT_TRUE(fam().supports(spec));
  auto inst = fam().make(spec);
  util::Rng rng(spec.seed);
  runtime::run_random(inst->system(), rng, std::uint64_t{1} << 22);
  const api::GenericCallLog log = inst->calls();
  if (!log.total_order) {
    EXPECT_EQ(fam().name, "bounded");
    return;
  }
  const std::size_t n = log.size();
  ASSERT_EQ(n, static_cast<std::size_t>(spec.total_calls()));
  std::size_t distinct_pairs = 0;
  for (std::size_t a = 0; a < n; ++a) {
    EXPECT_FALSE(log.before(a, a)) << log.ts_repr(a);
    for (std::size_t b = 0; b < n; ++b) {
      const bool ab = log.before(a, b);
      const bool ba = log.before(b, a);
      EXPECT_FALSE(ab && ba) << log.ts_repr(a) << " vs " << log.ts_repr(b);
      if (!ab && !ba) {
        EXPECT_EQ(log.ts_repr(a), log.ts_repr(b));
      } else {
        ++distinct_pairs;
      }
      if (!ab) continue;
      for (std::size_t c = 0; c < n; ++c) {
        if (log.before(b, c)) {
          EXPECT_TRUE(log.before(a, c))
              << log.ts_repr(a) << " < " << log.ts_repr(b) << " < "
              << log.ts_repr(c);
        }
      }
    }
  }
  EXPECT_GT(distinct_pairs, 0u);
}

TEST(CrashRestartConformance, BoundedLabelRecyclingSurvivesCrashes) {
  // The bounded family's mod-K label recycling under the crash/restart
  // adversary: a deliberately small universe keeps the run in the recycling
  // regime (wraps fire, the windowed pair filter engages) while victims die
  // mid-call and return with fresh local state. The windowed property must
  // hold across crash, wrap and restart combined.
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 8;
  spec.universe_bound = 3;
  runtime::CrashPlan plan;
  plan.crashes = 2;
  plan.restart = true;
  plan.max_victim_steps = 12;
  std::uint64_t restarts = 0;
  std::int64_t wraps = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    spec.seed = seed;
    const auto report = api::Harness{}.run_scenario(
        api::family("bounded"), spec, api::crash_restart(plan));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.survivors_finished) << report.summary();
    restarts += report.restarts;
    for (const auto& [key, value] : report.metrics) {
      if (key == "wraps") wraps += value;
    }
  }
  EXPECT_GT(restarts, 0u) << "no victim ever restarted across the seeds";
  EXPECT_GT(wraps, 0) << "no execution ever recycled a label";
}

TEST_P(FamilyConformance, ReplayFactoryIsDeterministic) {
  // The registry factory must clone configurations by replay: two systems
  // stepped through the same schedule report identical register files.
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = fam().max_calls_per_process == 0 ? 2 : 1;
  const runtime::SystemFactory factory = fam().factory(spec);
  auto a = factory();
  auto b = factory();
  util::Rng rng(9);
  runtime::run_random(*a, rng, 1u << 16);
  runtime::run_script(*b, a->executed_schedule());
  ASSERT_EQ(a->num_registers(), b->num_registers());
  for (int r = 0; r < a->num_registers(); ++r) {
    EXPECT_EQ(a->register_repr(r), b->register_repr(r)) << "register " << r;
  }
}

TEST_P(FamilyConformance, DerivedFormsReplayIdentically) {
  // make, factory and the 1-shard service are all derived from the family's
  // one engine: a schedule recorded on one replays through the others to
  // the same steps, register contents and (pid, call, timestamp) history.
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = fam().max_calls_per_process == 0 ? 2 : 1;
  auto live = fam().make(spec);
  util::Rng rng(spec.seed);
  runtime::run_random(live->system(), rng, 1u << 16);
  const std::vector<int> schedule = live->system().executed_schedule();

  auto replayed = fam().factory(spec)();
  runtime::run_script(*replayed, schedule);
  api::ScenarioSpec one_shard = spec;
  one_shard.shard.shards = 1;
  auto service = fam().make_sharded(one_shard);
  runtime::run_script(service->system(), schedule);

  const runtime::ISystem& sys = live->system();
  for (const runtime::ISystem* other : {replayed.get(), &service->system()}) {
    EXPECT_EQ(other->steps_taken(), sys.steps_taken());
    ASSERT_EQ(other->num_registers(), sys.num_registers());
    for (int r = 0; r < sys.num_registers(); ++r) {
      EXPECT_EQ(other->register_repr(r), sys.register_repr(r))
          << "register " << r;
    }
  }
  const auto history = [](const api::GenericCallLog& log) {
    std::vector<std::tuple<int, int, std::string>> out;
    for (const auto& r : log.records) {
      out.emplace_back(r.pid, r.call_index, log.ts_repr(r.ts));
    }
    return out;
  };
  const auto calls = history(live->calls());
  EXPECT_EQ(calls.size(), static_cast<std::size_t>(spec.total_calls()));
  EXPECT_EQ(calls, history(service->shard_calls(0)));
}

TEST(BoundedWindowedConformance, RecyclingRegimeEngagesThePairFilter) {
  // A deliberately small universe (K = 3 < 2*calls + 1) puts the bounded
  // family in the recycling regime: labels wrap, and the registry must wire
  // the windowed pair filter into the erased log so ordered pairs outside
  // the window are released from their obligation (mirrors the typed test
  // BoundedRecycling.LongRunWrapsAndSatisfiesWindowedProperty).
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 8;
  spec.universe_bound = 3;
  const auto report = api::Harness{}.run_scenario(
      api::family("bounded"), spec, api::round_robin());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.all_finished) << report.summary();
  EXPECT_GT(report.filtered_pairs, 0u)
      << "the windowed pair filter never fired: " << report.summary();
  std::int64_t wraps = 0;
  for (const auto& [key, value] : report.metrics) {
    if (key == "wraps") wraps = value;
  }
  EXPECT_GT(wraps, 0) << "execution never recycled a label: "
                      << report.summary();
}

TEST(BoundedWindowedConformance, ModulusBelowThreeIsRejectedByEveryForm) {
  // K = 1 or 2 leaves a window W = (K-1)/2 of 0, under which the pair
  // filter would release every ordered pair: a run would "pass" without
  // checking anything. The engine rejects such a modulus, so every form
  // built from it does, on both backends, sharded or not.
  for (const std::int32_t k : {1, 2}) {
    for (const api::Backend backend :
         {api::Backend::kSim, api::Backend::kNative}) {
      for (const int shards : {0, 1}) {
        api::ScenarioSpec spec;
        spec.n = 3;
        spec.calls_per_process = 4;
        spec.universe_bound = k;
        spec.backend = backend;
        spec.shard.shards = shards;
        const api::ScheduleSource source = backend == api::Backend::kNative
                                               ? api::native_os()
                                               : api::round_robin();
        EXPECT_THROW((void)api::Harness{}.run_scenario(
                         api::family("bounded"), spec, source),
                     invariant_error)
            << "K=" << k << " backend=" << api::backend_name(backend)
            << " shards=" << shards;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyConformance,
                         ::testing::ValuesIn(family_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
