#include "api/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <utility>

#include "analysis/footprint.hpp"
#include "runtime/scheduler.hpp"
#include "shard/sharded_instance.hpp"
#include "verify/at_most_once.hpp"
#include "verify/hb_checker.hpp"

namespace stamped::api {

namespace {

/// A timestamp handle dressed up as a RegisterValue so the typed checkers of
/// verify/hb_checker.hpp run unchanged over type-erased histories.
struct OpaqueTs {
  std::size_t idx = 0;
  const GenericCallLog* log = nullptr;

  friend bool operator==(const OpaqueTs&, const OpaqueTs&) = default;

  [[nodiscard]] std::string repr() const {
    return log != nullptr ? log->ts_repr(idx) : "?";
  }
};

struct OpaqueCompare {
  [[nodiscard]] bool operator()(const OpaqueTs& a, const OpaqueTs& b) const {
    return a.log->before(a.idx, b.idx);
  }
};

GenericCallRecord to_generic(const runtime::CallRecord<OpaqueTs>& r) {
  return {r.pid, r.call_index, r.ts.idx, r.invoked_at, r.responded_at};
}

/// Applies the enabled checkers to `log`, accumulating into `rep`: the
/// O(N log N) sweep forms when the log declares a total order, else the
/// quadratic forms with the log's pair filter.
void apply_checkers(const GenericCallLog& log, const Checkers& checkers,
                    ScenarioReport& rep) {
  if (!checkers.timestamp_property && !checkers.per_process_monotonicity) {
    return;
  }
  std::vector<runtime::CallRecord<OpaqueTs>> records;
  records.reserve(log.records.size());
  for (const auto& r : log.records) {
    runtime::CallRecord<OpaqueTs> c;
    c.pid = r.pid;
    c.call_index = r.call_index;
    c.ts = OpaqueTs{r.ts, &log};
    c.invoked_at = r.invoked_at;
    c.responded_at = r.responded_at;
    records.push_back(c);
  }
  const auto pair_filter = [&log](const runtime::CallRecord<OpaqueTs>& a,
                                  const runtime::CallRecord<OpaqueTs>& b) {
    return log.obligated(to_generic(a), to_generic(b));
  };
  if (checkers.timestamp_property) {
    const auto r = log.total_order
                       ? verify::check_timestamp_property_sweep(
                             records, OpaqueCompare{})
                       : verify::check_timestamp_property_filtered(
                             records, OpaqueCompare{}, pair_filter);
    rep.ordered_pairs += r.ordered_pairs_checked;
    rep.concurrent_pairs += r.concurrent_pairs;
    rep.filtered_pairs += r.filtered_pairs;
    rep.violations.insert(rep.violations.end(), r.violations.begin(),
                          r.violations.end());
  }
  if (checkers.per_process_monotonicity) {
    const auto r = log.total_order
                       ? verify::check_per_process_monotonicity_sweep(
                             records, OpaqueCompare{})
                       : verify::check_per_process_monotonicity_filtered(
                             records, OpaqueCompare{}, pair_filter);
    rep.violations.insert(rep.violations.end(), r.violations.begin(),
                          r.violations.end());
  }
}

/// The report fields of one native run, shared by the plain and the sharded
/// paths. Native runs have no simulated scheduler: steps is the register-op
/// count, and registers_written stays 0 (the atomic backend does not track
/// per-register write sets; footprint analysis is a simulator concern).
void fill_native_report(const NativeRunStats& st, ScenarioReport& rep) {
  rep.steps = st.ops;
  rep.calls = st.calls;
  rep.all_finished = true;  // run_native rethrows program failures
  rep.survivors_finished = true;
  rep.native_threads = st.threads;
  rep.native_elapsed_seconds = st.elapsed_seconds;
  rep.native_ops_per_sec =
      st.elapsed_seconds > 0.0
          ? static_cast<double>(st.ops) / st.elapsed_seconds
          : 0.0;
  rep.native_thread_calls = st.per_thread_calls;
  rep.recorder_arena_bytes = st.recorder_arena_bytes;
  rep.retired_nodes = st.retired_nodes;
  rep.memory_arena_bytes = st.memory_arena_bytes;
}

/// Drives a simulated system under a driver, crash or jitter source, in the
/// spec's recording mode and seeded from spec.seed, and fills the report's
/// run fields. Shared by the plain and the sharded paths.
void drive_sim(runtime::ISystem& sys, const ScenarioSpec& spec,
               const ScheduleSource& source, std::uint64_t max_steps,
               ScenarioReport& rep) {
  if (spec.recording != runtime::RecordingMode::kFull) {
    sys.set_recording_mode(spec.recording);
  }
  util::Rng rng(spec.seed);
  bool crash_survivors = false;
  switch (source.kind) {
    case ScheduleSource::Kind::kDriver: {
      STAMPED_ASSERT_MSG(source.drive != nullptr,
                         "schedule source '" << source.name
                                             << "' has no driver");
      source.drive(sys, rng, max_steps);
      break;
    }
    case ScheduleSource::Kind::kCrash: {
      const runtime::CrashStats st =
          runtime::run_crash_restart(sys, rng, source.crash, max_steps);
      rep.crashes = st.crashes;
      rep.restarts = st.restarts;
      rep.crashed_down = st.crashed_down;
      crash_survivors = st.survivors_finished;
      break;
    }
    case ScheduleSource::Kind::kJitter: {
      const runtime::JitterStats st =
          runtime::run_jittered(sys, rng, source.jitter, max_steps);
      rep.stalls = st.stalls;
      rep.ticks = st.ticks;
      break;
    }
    default:
      STAMPED_ASSERT(false);  // the other kinds are not step drivers
  }
  runtime::check_no_failures(sys);
  rep.all_finished = sys.all_finished();
  // Crash runs legitimately leave crashed-and-down processes unfinished;
  // the wait-freedom verdict is the crash driver's survivor accounting.
  rep.survivors_finished = source.kind == ScheduleSource::Kind::kCrash
                               ? crash_survivors
                               : rep.all_finished;
  rep.steps = sys.steps_taken();
  rep.calls = sys.calls_completed_total();
  rep.registers_written = sys.registers_written();
}

/// The sharded-service path of run_scenario (ScenarioSpec::shard.shards
/// > 0): builds a shard::ShardedInstance, drives it on the requested
/// backend, and checks three layers of history — the composed global log
/// (timestamp property through ComposedCompare), every per-shard local log
/// (the shard's own family comparator and pair filter, violations prefixed
/// "shard s:"), and the cross-shard monotonicity obligation.
ScenarioReport run_sharded_scenario(const TimestampFamily& family,
                                    const ScenarioSpec& spec,
                                    const ScheduleSource& source,
                                    const Checkers& checkers,
                                    std::uint64_t max_steps) {
  STAMPED_ASSERT_MSG(family.make_sharded != nullptr,
                     "family '" << family.name << "' has no sharded form");
  STAMPED_ASSERT_MSG(
      source.kind == ScheduleSource::Kind::kDriver ||
          source.kind == ScheduleSource::Kind::kCrash ||
          source.kind == ScheduleSource::Kind::kJitter ||
          source.kind == ScheduleSource::Kind::kNativeOS,
      "sharded scenarios run under driver, crash, jitter, or native_os() "
      "sources; '" << source.name << "' is not supported");
  ScenarioReport rep;
  rep.family = family.name;
  rep.schedule = source.name;
  rep.spec = spec;

  auto inst = family.make_sharded(spec);
  if (source.kind == ScheduleSource::Kind::kNativeOS) {
    fill_native_report(inst->run_native(spec.native_threads), rep);
  } else {
    drive_sim(inst->system(), spec, source, max_steps, rep);
  }

  const shard::ShardRunStats st = inst->shard_stats();
  rep.registers_allocated = st.total_registers;
  rep.shards = st.shards;
  rep.shard_calls = st.per_shard_calls;
  rep.shard_clients = st.per_shard_clients;
  rep.metrics = inst->metrics();

  if (checkers.timestamp_property || checkers.per_process_monotonicity) {
    const GenericCallLog composed = inst->composed_calls();
    apply_checkers(composed, checkers, rep);
    // At-most-once service: every call is recorded once, by its own client.
    // Restarted processes legitimately re-run the same (pid, call_index), so
    // the duplicate check only binds runs without restarts.
    if (rep.restarts == 0) {
      const verify::HbReport once =
          verify::check_at_most_once_service(composed.records);
      rep.violations.insert(rep.violations.end(), once.violations.begin(),
                            once.violations.end());
    }
    for (int s = 0; s < st.shards; ++s) {
      ScenarioReport local;
      apply_checkers(inst->shard_calls(s), checkers, local);
      rep.ordered_pairs += local.ordered_pairs;
      rep.concurrent_pairs += local.concurrent_pairs;
      rep.filtered_pairs += local.filtered_pairs;
      for (const std::string& v : local.violations) {
        rep.violations.push_back("shard " + std::to_string(s) + ": " + v);
      }
    }
    const verify::HbReport cross = inst->cross_shard_monotonicity();
    rep.cross_shard_pairs = cross.ordered_pairs_checked;
    rep.violations.insert(rep.violations.end(), cross.violations.begin(),
                          cross.violations.end());
  }
  return rep;
}

/// Builds an instance factory for the explorer and the fuzzer: each instance
/// is a fresh system whose check applies the harness checkers to its
/// history, hands the instance, its system and that branch report to `fold`,
/// and reports the first violation. Captures family/spec/checkers by
/// reference — callers must keep them alive while the factory is in use
/// (run_scenario and crosscheck_por do).
verify::InstanceFactory make_instance_factory(
    const TimestampFamily& family, const ScenarioSpec& spec,
    const Checkers& checkers,
    std::function<void(const FamilyInstance&, const runtime::ISystem&,
                       const ScenarioReport&)>
        fold) {
  return [&family, &spec, &checkers, fold = std::move(fold)]() {
    std::shared_ptr<FamilyInstance> inst{family.make(spec)};
    verify::ExplorationInstance e;
    e.sys = inst->take_system();
    runtime::ISystem* raw = e.sys.get();
    e.check = [inst, raw, &checkers, fold]() -> std::optional<std::string> {
      ScenarioReport branch;
      if (checkers.timestamp_property || checkers.per_process_monotonicity) {
        apply_checkers(inst->calls(), checkers, branch);
      }
      fold(*inst, *raw, branch);
      if (!branch.violations.empty()) return branch.violations.front();
      return std::nullopt;
    };
    return e;
  };
}

void require_supported(const TimestampFamily& family,
                       const ScenarioSpec& spec) {
  STAMPED_ASSERT_MSG(family.supports(spec),
                     "family '" << family.name
                                << "' does not support this scenario (n="
                                << spec.n << ", calls_per_process="
                                << spec.calls_per_process << ")");
}

/// What the explorer needs for an exhaustive scenario: the source's options
/// with the spec's thread override and the family's footprints applied, and
/// an instance factory whose checks keep the worst registers-written count.
struct ExploreSetup {
  verify::ExploreOptions opts;
  std::shared_ptr<std::atomic<int>> worst_written;
  verify::InstanceFactory factory;
};

ExploreSetup explore_setup(const TimestampFamily& family,
                           const ScenarioSpec& spec,
                           const ScheduleSource& source,
                           const Checkers& checkers) {
  // The explorer replays prefixes and inspects views, which requires full
  // recording; reject the conflicting spec loudly rather than silently
  // running in kFull.
  STAMPED_ASSERT_MSG(spec.recording == runtime::RecordingMode::kFull,
                     "the exhaustive explorer requires "
                     "ScenarioSpec::recording == kFull");
  ExploreSetup setup;
  setup.opts = source.explore;
  if (spec.explore_threads > 0) setup.opts.threads = spec.explore_threads;
  // ExploreOptions::exact_footprints opt-in: lowers the family's declared
  // footprint into the explorer's static write map. A family without a
  // declared footprint keeps the pending-op heuristic (null map).
  if (setup.opts.exact_footprints && setup.opts.footprints == nullptr &&
      family.footprint.declared()) {
    setup.opts.footprints = analysis::write_footprints(family, spec);
  }
  // Instances are worker-private, but the accumulator is shared across the
  // whole exploration — atomic, because the parallel DFS runs checks from
  // several workers at once.
  setup.worst_written = std::make_shared<std::atomic<int>>(0);
  setup.factory = make_instance_factory(
      family, spec, checkers,
      [worst = setup.worst_written](const FamilyInstance&,
                                    const runtime::ISystem& sys,
                                    const ScenarioReport&) {
        const int written = sys.registers_written();
        int cur = worst->load(std::memory_order_relaxed);
        while (written > cur &&
               !worst->compare_exchange_weak(cur, written,
                                             std::memory_order_relaxed)) {
        }
      });
  return setup;
}

/// Sums family metrics across the fuzzer's executions, keyed by name.
void accumulate_metrics(Metrics& into, const Metrics& add) {
  for (const auto& [key, value] : add) {
    const auto it =
        std::find_if(into.begin(), into.end(),
                     [&key](const auto& kv) { return kv.first == key; });
    if (it == into.end()) {
      into.emplace_back(key, value);
    } else {
      it->second += value;
    }
  }
}

}  // namespace

ScheduleSource round_robin() {
  ScheduleSource src;
  src.name = "round-robin";
  src.drive = [](runtime::ISystem& sys, util::Rng&, std::uint64_t max_steps) {
    runtime::run_round_robin(sys, max_steps);
  };
  return src;
}

ScheduleSource seeded_random() {
  ScheduleSource src;
  src.name = "random";
  src.drive = [](runtime::ISystem& sys, util::Rng& rng,
                 std::uint64_t max_steps) {
    runtime::run_random(sys, rng, max_steps);
  };
  return src;
}

ScheduleSource sequential() {
  ScheduleSource src;
  src.name = "sequential";
  src.drive = [](runtime::ISystem& sys, util::Rng&, std::uint64_t max_steps) {
    for (int p = 0; p < sys.num_processes(); ++p) {
      runtime::run_solo_until(
          sys, p, [](runtime::ISystem&) { return false; }, max_steps);
    }
  };
  return src;
}

ScheduleSource staggered(int group) {
  STAMPED_ASSERT(group >= 1);
  ScheduleSource src;
  src.name = "staggered-" + std::to_string(group);
  src.drive = [group](runtime::ISystem& sys, util::Rng& rng,
                      std::uint64_t max_steps) {
    const int n = sys.num_processes();
    std::uint64_t steps = 0;
    for (int base = 0; base < n; base += group) {
      const int hi = std::min(n, base + group);
      std::vector<int> live;
      for (;;) {
        live.clear();
        for (int p = base; p < hi; ++p) {
          if (!sys.finished(p)) live.push_back(p);
        }
        if (live.empty() || steps >= max_steps) break;
        sys.step(live[static_cast<std::size_t>(rng.next_below(live.size()))]);
        ++steps;
      }
      if (steps >= max_steps) break;
    }
  };
  return src;
}

ScheduleSource covering_adversary() {
  ScheduleSource src;
  src.name = "covering";
  src.drive = [](runtime::ISystem& sys, util::Rng&, std::uint64_t max_steps) {
    // Pause every process at a write to a register no earlier process
    // covers (greedy covering), then release the block write and drain.
    std::unordered_set<int> covered;
    const int n = sys.num_processes();
    for (int p = 0; p < n; ++p) {
      if (runtime::run_solo_until_poised_outside(sys, p, covered,
                                                 max_steps)) {
        covered.insert(sys.pending(p).reg);
      }
    }
    for (int p = 0; p < n; ++p) {
      if (!sys.finished(p) && sys.pending(p).is_write()) sys.step(p);
    }
    runtime::run_round_robin(sys, max_steps);
  };
  return src;
}

ScheduleSource exhaustive_explorer(verify::ExploreOptions opts) {
  ScheduleSource src;
  src.name = "exhaustive";
  src.kind = ScheduleSource::Kind::kExhaustive;
  src.explore = opts;
  return src;
}

ScheduleSource crash_restart(runtime::CrashPlan plan) {
  STAMPED_ASSERT(plan.crashes >= 0);
  STAMPED_ASSERT(plan.min_victim_steps <= plan.max_victim_steps);
  ScheduleSource src;
  src.name = plan.restart ? "crash-restart" : "crash";
  src.kind = ScheduleSource::Kind::kCrash;
  src.crash = plan;
  return src;
}

ScheduleSource jittered(runtime::JitterSpec spec) {
  STAMPED_ASSERT(spec.stall_period >= 1);
  STAMPED_ASSERT(spec.max_stall >= 1);
  ScheduleSource src;
  src.name = "jitter";
  src.kind = ScheduleSource::Kind::kJitter;
  src.jitter = spec;
  return src;
}

ScheduleSource coverage_fuzzer(std::uint64_t seed, std::uint64_t budget) {
  verify::FuzzOptions opts;
  opts.seed = seed;
  opts.budget = budget;
  return coverage_fuzzer(opts);
}

ScheduleSource coverage_fuzzer(verify::FuzzOptions opts) {
  STAMPED_ASSERT(opts.budget >= 1);
  STAMPED_ASSERT(opts.max_corpus >= 1);
  ScheduleSource src;
  src.name = "fuzzer";
  src.kind = ScheduleSource::Kind::kFuzzer;
  src.fuzz = opts;
  return src;
}

ScheduleSource native_os() {
  ScheduleSource src;
  src.name = "native-os";
  src.kind = ScheduleSource::Kind::kNativeOS;
  return src;
}

std::string ScenarioReport::summary() const {
  std::ostringstream os;
  os << family << " x " << schedule << " (n=" << spec.n << ", calls="
     << spec.calls_per_process << "): ";
  if (schedule == "native-os") {
    os << steps << " ops on " << native_threads << " threads ("
       << native_elapsed_seconds << "s, "
       << static_cast<std::uint64_t>(native_ops_per_sec) << " ops/s), "
       << calls << " calls, recorder " << recorder_arena_bytes
       << " B, memory " << memory_arena_bytes << " B, retired "
       << retired_nodes << ", ";
  } else if (schedule == "exhaustive") {
    os << executions << " executions, " << nodes << " nodes";
    if (sleep_pruned > 0 || persistent_deferred > 0) {
      os << " (" << sleep_pruned << " pruned, " << persistent_deferred
         << " deferred)";
    }
    if (explore_workers > 1) os << " on " << explore_workers << " workers";
    os << ", ";
  } else {
    os << steps << " steps, " << calls << " calls, registers "
       << registers_written << "/" << registers_allocated << ", ";
  }
  os << "ordered=" << ordered_pairs << " concurrent=" << concurrent_pairs
     << " filtered=" << filtered_pairs;
  if (crashes > 0 || crashed_down > 0) {
    os << " crashes=" << crashes << " restarts=" << restarts << " down="
       << crashed_down << " survivors_finished=" << survivors_finished;
  }
  if (stalls > 0) os << " stalls=" << stalls << " ticks=" << ticks;
  if (coverage_signatures > 0) {
    os << " signatures=" << coverage_signatures << " corpus=" << corpus_size
       << " executions=" << executions;
  }
  if (shards > 0) {
    os << " shards=" << shards << " cross_pairs=" << cross_shard_pairs;
  }
  for (const auto& [key, value] : metrics) os << ' ' << key << '=' << value;
  os << (ok() ? " OK" : " VIOLATED");
  for (const auto& v : violations) os << "\n  " << v;
  return os.str();
}

ScenarioReport Harness::run_scenario(const TimestampFamily& family,
                                     const ScenarioSpec& spec,
                                     const ScheduleSource& source,
                                     const Checkers& checkers) const {
  require_supported(family, spec);
  // Both directions: a native spec under a simulator source would silently
  // run the wrong engine; a simulator spec under native_os() has no programs
  // wired for real threads. Either way the report would lie about what ran.
  STAMPED_ASSERT_MSG(
      (spec.backend == Backend::kNative) ==
          (source.kind == ScheduleSource::Kind::kNativeOS),
      "backend/source mismatch: backend=" << backend_name(spec.backend)
          << " with schedule source '" << source.name
          << "' — the native backend runs only under api::native_os()");
  if (spec.sharded()) {
    return run_sharded_scenario(family, spec, source, checkers, max_steps_);
  }
  ScenarioReport rep;
  rep.family = family.name;
  rep.schedule = source.name;
  rep.spec = spec;
  rep.registers_allocated = family.registers_allocated(spec);

  if (source.kind == ScheduleSource::Kind::kNativeOS) {
    STAMPED_ASSERT_MSG(family.make_native != nullptr,
                       "family '" << family.name << "' has no native form");
    auto inst = family.make_native(spec);
    fill_native_report(inst->run_native(spec.native_threads), rep);
    rep.metrics = inst->metrics();
    if (checkers.timestamp_property || checkers.per_process_monotonicity) {
      // The Haldar–Vitányi move: the OS scheduled the run, so correctness
      // comes from checking the recorded history post-hoc.
      apply_checkers(inst->calls(), checkers, rep);
    }
    return rep;
  }

  if (source.kind == ScheduleSource::Kind::kExhaustive) {
    const ExploreSetup setup = explore_setup(family, spec, source, checkers);
    const auto result = verify::explore_all_executions(setup.factory,
                                                       setup.opts);
    rep.executions = result.executions;
    rep.nodes = result.nodes;
    rep.sleep_pruned = result.sleep_pruned;
    rep.persistent_deferred = result.persistent_deferred;
    rep.explore_workers = result.workers;
    rep.budget_exhausted = result.budget_exhausted;
    rep.registers_written =
        setup.worst_written->load(std::memory_order_relaxed);
    rep.all_finished = !result.depth_exceeded;
    rep.violations = result.violations;
    return rep;
  }

  if (source.kind == ScheduleSource::Kind::kFuzzer) {
    // Signatures come from the step-info log, which kCountsOnly discards.
    STAMPED_ASSERT_MSG(spec.recording == runtime::RecordingMode::kFull,
                       "the coverage fuzzer requires "
                       "ScenarioSpec::recording == kFull");
    // Every execution is checked, and its counts, metrics and violations
    // sum into the report; registers_written is the worst case.
    const verify::InstanceFactory factory = make_instance_factory(
        family, spec, checkers,
        [&rep](const FamilyInstance& inst, const runtime::ISystem& sys,
               const ScenarioReport& branch) {
          rep.steps += sys.steps_taken();
          rep.calls += sys.calls_completed_total();
          rep.registers_written =
              std::max(rep.registers_written, sys.registers_written());
          accumulate_metrics(rep.metrics, inst.metrics());
          rep.ordered_pairs += branch.ordered_pairs;
          rep.concurrent_pairs += branch.concurrent_pairs;
          rep.filtered_pairs += branch.filtered_pairs;
          rep.violations.insert(rep.violations.end(),
                                branch.violations.begin(),
                                branch.violations.end());
        });
    const verify::FuzzResult result =
        verify::fuzz_schedules(factory, source.fuzz, spec.seed, max_steps_);
    rep.executions = source.fuzz.budget;
    rep.all_finished = result.all_finished;
    rep.survivors_finished = result.all_finished;
    rep.coverage_signatures = result.signatures;
    rep.corpus_size = result.corpus_size;
    return rep;
  }

  auto inst = family.make(spec);
  drive_sim(inst->system(), spec, source, max_steps_, rep);
  rep.metrics = inst->metrics();
  if (checkers.timestamp_property || checkers.per_process_monotonicity) {
    // calls() merges the whole recorded history; skip it when no checker
    // will look (the space benches run with Checkers::none()).
    apply_checkers(inst->calls(), checkers, rep);
  }
  return rep;
}

verify::PorCrossCheck Harness::crosscheck_por(const TimestampFamily& family,
                                              const ScenarioSpec& spec,
                                              const ScheduleSource& source,
                                              const Checkers& checkers) const {
  STAMPED_ASSERT_MSG(
      source.kind == ScheduleSource::Kind::kExhaustive,
      "crosscheck_por certifies the exhaustive exploration tree; schedule "
      "source '" << source.name << "' is not exhaustive — run it through "
      "run_scenario instead of pretending a cross-check passed");
  require_supported(family, spec);
  const ExploreSetup setup = explore_setup(family, spec, source, checkers);
  return verify::crosscheck_por(setup.factory, setup.opts);
}

std::string SweepReport::summary() const {
  std::ostringstream os;
  os << "sweep: " << reports.size() << " scenarios on " << workers
     << " workers, " << total_steps << " steps, " << total_calls
     << " calls, " << scenarios_failed << " failed ("
     << elapsed_seconds << "s)";
  return os.str();
}

SweepReport Harness::run_scenario_sweep(const TimestampFamily& family,
                                        const std::vector<ScenarioSpec>& grid,
                                        const ScheduleSource& source,
                                        const Checkers& checkers,
                                        unsigned workers) const {
  SweepReport sweep;
  sweep.reports.resize(grid.size());
  if (grid.empty()) return sweep;

  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min<unsigned>(workers, static_cast<unsigned>(grid.size()));
  sweep.workers = static_cast<int>(workers);

  const auto start = std::chrono::steady_clock::now();
  // Work-stealing by atomic index: each worker claims the next unclaimed
  // spec and runs it on a System it alone owns. The spec order of `grid` is
  // preserved in `reports`, so results are independent of which worker ran
  // which spec (replay determinism) and of the claiming order.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= grid.size()) return;
          try {
            sweep.reports[i] =
                run_scenario(family, grid[i], source, checkers);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  sweep.elapsed_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  for (const ScenarioReport& rep : sweep.reports) {
    sweep.total_steps += rep.steps;
    sweep.total_calls += rep.calls;
    if (!rep.ok()) ++sweep.scenarios_failed;
  }
  return sweep;
}

}  // namespace stamped::api
