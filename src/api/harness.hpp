// Harness: compose any registered timestamp family with any schedule source
// and the history checkers, yielding one structured ScenarioReport.
//
//   auto report = api::Harness{}.run_scenario(
//       api::family("sqrt-oneshot"), {.n = 16}, api::seeded_random());
//   STAMPED_ASSERT(report.ok());
//
// Schedule sources mirror the executions used throughout the paper: fair
// round-robin, a seeded random adversary, fully sequential arrival, the
// staggered-arrival workload that drives Algorithm 4 through many phases, a
// greedy block-write covering adversary (Sections 3-4 flavor), and the
// exhaustive explorer that enumerates every interleaving of small systems.
// The timestamp property is checked through the family's own comparator and
// pair filter, so bounded-universe families are automatically held to their
// windowed guarantee and unbounded families to the unconditional one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/family.hpp"
#include "util/rng.hpp"
#include "verify/explorer.hpp"
#include "verify/fuzzer.hpp"

namespace stamped::api {

/// One way of driving a scenario to completion.
struct ScheduleSource {
  enum class Kind : std::uint8_t {
    kDriver,      ///< steps one live system via `drive`
    kExhaustive,  ///< enumerates all executions via the explorer
    kCrash,       ///< crash/restart adversary (runtime::run_crash_restart)
    kJitter,      ///< seeded stall windows (runtime::run_jittered)
    kFuzzer,      ///< coverage-guided schedule search (verify::CoverageMap)
    kNativeOS,    ///< real threads; the OS schedules (backend = kNative)
  };

  std::string name;
  Kind kind = Kind::kDriver;
  /// Steps `sys` until done (or `max_steps`); `rng` is seeded from the
  /// ScenarioSpec. Used by kDriver only.
  std::function<void(runtime::ISystem& sys, util::Rng& rng,
                     std::uint64_t max_steps)>
      drive;
  /// Exploration budget for kExhaustive.
  verify::ExploreOptions explore{};
  /// Crash schedule for kCrash.
  runtime::CrashPlan crash{};
  /// Stall distribution for kJitter.
  runtime::JitterSpec jitter{};
  /// Search budget for kFuzzer.
  verify::FuzzOptions fuzz{};
};

/// Fair round-robin over unfinished processes.
[[nodiscard]] ScheduleSource round_robin();
/// Uniformly random adversary, reproducible from ScenarioSpec::seed.
[[nodiscard]] ScheduleSource seeded_random();
/// Fully sequential arrival: process 0 runs to completion, then 1, ...
[[nodiscard]] ScheduleSource sequential();
/// Staggered arrival in groups of `group`; each group completes under a
/// random schedule before the next starts (the phase-driving workload).
[[nodiscard]] ScheduleSource staggered(int group);
/// Greedy block-write covering adversary: each process runs solo until it
/// covers a register outside the covered set; the block write is then
/// executed and the run drained round-robin (Sections 3-4 flavor).
[[nodiscard]] ScheduleSource covering_adversary();
/// Exhaustive exploration of every interleaving (small systems only).
[[nodiscard]] ScheduleSource exhaustive_explorer(
    verify::ExploreOptions opts = {});
/// Crash/restart adversary: kills processes mid-call per `plan` under a
/// seeded random schedule, optionally restarting them with fresh local
/// state. Crashed-and-down processes never step again, so their calls never
/// complete and never enter the history — the checkers hold survivors to the
/// wait-free obligation and crashed calls to none, per the paper's model.
[[nodiscard]] ScheduleSource crash_restart(runtime::CrashPlan plan = {});
/// Deterministic jitter: a seeded random schedule with per-process stall
/// windows (runtime::run_jittered). Same spec + seed => byte-identical
/// ScenarioReport.
[[nodiscard]] ScheduleSource jittered(runtime::JitterSpec spec = {});
/// Coverage-guided schedule fuzzer (verify/fuzzer.hpp): runs `budget`
/// executions, steering toward unvisited op-pair interleaving signatures
/// (verify::CoverageMap). Every execution is checked; steps, calls and
/// violations sum over all of them, and coverage is reported in the
/// ScenarioReport. Sits between the random sweeps and the exhaustive
/// explorer: guided breadth without tree enumeration. Requires
/// ScenarioSpec::recording == kFull (signatures come from the step-info log).
[[nodiscard]] ScheduleSource coverage_fuzzer(std::uint64_t seed,
                                             std::uint64_t budget);
/// As above with full control of the search parameters.
[[nodiscard]] ScheduleSource coverage_fuzzer(verify::FuzzOptions opts);
/// The native backend's one schedule source: real OS threads schedule
/// themselves; the recorded history is checked post-hoc. Requires
/// ScenarioSpec::backend == Backend::kNative (both directions are asserted —
/// a native spec under a simulator source, or vice versa, is a category
/// error). Thread count comes from ScenarioSpec::native_threads.
[[nodiscard]] ScheduleSource native_os();

/// Which history checks run_scenario applies to the recorded calls.
struct Checkers {
  bool timestamp_property = true;
  bool per_process_monotonicity = true;

  [[nodiscard]] static Checkers none() { return {false, false}; }
};

/// Structured outcome of one scenario.
struct ScenarioReport {
  std::string family;
  std::string schedule;
  ScenarioSpec spec;

  bool all_finished = false;
  std::uint64_t steps = 0;
  std::uint64_t calls = 0;
  std::int64_t registers_allocated = 0;
  int registers_written = 0;

  /// Pair accounting from the checkers (0 when checks are disabled).
  std::size_t ordered_pairs = 0;
  std::size_t concurrent_pairs = 0;
  std::size_t filtered_pairs = 0;

  /// kCrash only: crash events that fired / victims restarted / processes
  /// still down at the end. A run with crashed_down > 0 legitimately has
  /// all_finished == false; survivors_finished is the wait-freedom verdict
  /// (every never-crashed or restarted process completed its program).
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t crashed_down = 0;
  bool survivors_finished = false;

  /// kJitter only: stall windows injected / scheduler ticks elapsed
  /// (ticks >= steps; the surplus is time where every live process stalled).
  std::uint64_t stalls = 0;
  std::uint64_t ticks = 0;

  /// kFuzzer only: distinct op-pair interleaving signatures reached and
  /// schedules retained as mutation parents. steps/calls/violations
  /// aggregate over all executions; registers_written is the worst case.
  std::uint64_t coverage_signatures = 0;
  std::uint64_t corpus_size = 0;

  /// kExhaustive/kFuzzer: complete executions checked; budget flag is
  /// kExhaustive only.
  std::uint64_t executions = 0;
  bool budget_exhausted = false;

  /// kExhaustive only: interior scheduling nodes visited / subtrees the
  /// sleep sets pruned (0 unless ExploreOptions::por) / sibling branches the
  /// persistent sets deferred (0 unless ExploreOptions::persistent).
  std::uint64_t nodes = 0;
  std::uint64_t sleep_pruned = 0;
  std::uint64_t persistent_deferred = 0;

  /// kExhaustive only: worker threads the exploration actually used — the
  /// source's ExploreOptions::threads, with 0 resolved to hardware
  /// concurrency (so this reports the real pool size, never 0).
  int explore_workers = 0;

  /// kNativeOS only: real worker threads spawned / wall time / total
  /// register ops and throughput (ops includes every read+write, so it is
  /// deterministic for scan-free families and workload-dependent for
  /// scanning ones) / completed calls per worker (sums to `calls`; the split
  /// is OS-scheduling-dependent) / recorder block bytes / memory accounting
  /// after quiesce (retired_nodes, the displaced record nodes left, is 0 on
  /// a clean quiesce).
  int native_threads = 0;
  double native_elapsed_seconds = 0.0;
  double native_ops_per_sec = 0.0;
  std::vector<std::uint64_t> native_thread_calls;
  std::uint64_t recorder_arena_bytes = 0;
  std::uint64_t retired_nodes = 0;
  std::uint64_t memory_arena_bytes = 0;

  /// Sharded scenarios only (ScenarioSpec::shard.shards > 0): shard count,
  /// the per-shard call and client split, and how many cross-shard
  /// happens-before pairs the cross-shard monotonicity checker held to order.
  int shards = 0;
  std::vector<std::uint64_t> shard_calls;
  std::vector<int> shard_clients;
  std::size_t cross_shard_pairs = 0;

  Metrics metrics;
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Aggregated outcome of run_scenario_sweep: the per-spec reports (input
/// order) plus totals for quick gating.
struct SweepReport {
  std::vector<ScenarioReport> reports;
  std::uint64_t total_steps = 0;
  std::uint64_t total_calls = 0;
  std::size_t scenarios_failed = 0;  ///< reports with violations
  int workers = 0;                   ///< threads actually spawned
  double elapsed_seconds = 0.0;

  [[nodiscard]] bool ok() const { return scenarios_failed == 0; }
  [[nodiscard]] std::string summary() const;
};

/// The scenario runner. Stateless apart from the step budget.
class Harness {
 public:
  Harness() = default;
  explicit Harness(std::uint64_t max_steps) : max_steps_(max_steps) {}

  /// Runs `family` under `source` and applies `checkers`; see file comment.
  [[nodiscard]] ScenarioReport run_scenario(const TimestampFamily& family,
                                            const ScenarioSpec& spec,
                                            const ScheduleSource& source,
                                            const Checkers& checkers = {}) const;

  /// Fans `grid` across a pool of `workers` threads (0 = hardware
  /// concurrency) and aggregates the reports. Each scenario builds its own
  /// System inside its worker — replay determinism makes the per-spec
  /// reports identical to a serial loop of run_scenario calls, in any worker
  /// interleaving — so the sweep is embarrassingly parallel. The first
  /// exception thrown by any scenario is rethrown after all workers join.
  [[nodiscard]] SweepReport run_scenario_sweep(
      const TimestampFamily& family, const std::vector<ScenarioSpec>& grid,
      const ScheduleSource& source, const Checkers& checkers = {},
      unsigned workers = 0) const;

  /// Runs verify::crosscheck_por on `family`'s instances (full DFS vs the
  /// POR-reduced DFS, violation sets diffed). The cross-check certifies the
  /// exhaustive tree and nothing else: handing it an adversarial source
  /// (crash, jitter, fuzzer, any driver) is a category error and throws
  /// invariant_error loudly instead of "passing" a check that never ran.
  [[nodiscard]] verify::PorCrossCheck crosscheck_por(
      const TimestampFamily& family, const ScenarioSpec& spec,
      const ScheduleSource& source, const Checkers& checkers = {}) const;

 private:
  std::uint64_t max_steps_ = std::uint64_t{1} << 32;
};

}  // namespace stamped::api
