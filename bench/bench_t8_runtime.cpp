// T8 — Runtime hot-path benchmark: recording modes, version-clock scans and
// the POR explorer, with a blessed baseline so perf work is tracked, not
// anecdotal.
//
// The ROADMAP's perf item says the max-scan hot path is collect-dominated
// and that the seed did no optimization work. This bench pins the three
// optimizations of the hot-path refactor to numbers:
//
//   T8a — RecordingMode::kCountsOnly vs kFull on the T5 workload (max-scan,
//         8 processes x 2000 getTS calls, round-robin): per-step string
//         building, trace retention and observer dispatch are the dominant
//         cost of the kFull simulator loop; the counts-only mode must run
//         >= 5x more steps/sec. The step/call/byte counters are
//         deterministic and exact-diffed; the throughput columns carry a CI
//         tolerance (timing noise is not a regression).
//   T8b — sleep-set POR vs full DFS on the n=2 conformance model checks:
//         node and execution counts of both trees (deterministic, exact).
//         The POR tree must visit strictly fewer nodes; the conformance
//         suite separately proves it reports the identical violation set.
//
// The Google Benchmark timing section measures the same three hot paths in
// isolation, including the version-clock scan against the value-comparing
// scan on wide TsRecord registers (the O(n*K) vs O(n) comparison gap).
//
// Baselines live in bench/baselines/t8/ (NOT bench/baselines/: the main
// baseline dir is diffed by a CI step that does not run this bench). CI
// regenerates them in a Release build via:
//   bench_t8_runtime --table-only
//   tools/bench_diff.py --baseline-dir bench/baselines/t8 --measured-dir .
//       --tolerance Msteps_per_s=1e18 --tolerance speedup=1e18
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "core/timestamp.hpp"
#include "snapshot/double_collect.hpp"
#include "snapshot/versioned_collect.hpp"
#include "util/table.hpp"
#include "verify/explorer.hpp"

namespace {

using namespace stamped;

constexpr int kT5Procs = 8;
constexpr int kT5Calls = 2000;

/// The T5 workload's max-scan instance; its typed system keeps the trace.
std::unique_ptr<api::EngineInstance<api::MaxscanEngine>> t5_instance(
    runtime::RecordingMode mode) {
  return std::make_unique<api::EngineInstance<api::MaxscanEngine>>(
      api::ScenarioSpec{.n = kT5Procs,
                        .calls_per_process = kT5Calls,
                        .recording = mode},
      api::Backend::kSim);
}

struct ModeRun {
  std::uint64_t steps = 0;
  std::uint64_t calls = 0;
  std::uint64_t trace_entries = 0;
  std::uint64_t view_bytes = 0;
  double steps_per_sec = 0.0;
};

/// Runs the T5 workload once in `mode` into `out`, keeping the best
/// steps/sec over the runs made so far.
void run_mode_once(runtime::RecordingMode mode, ModeRun& out) {
  using Clock = std::chrono::steady_clock;
  const auto inst = t5_instance(mode);
  runtime::System<std::int64_t>* sys = &inst->sim();
  const auto start = Clock::now();
  runtime::run_round_robin(*sys, std::uint64_t{1} << 32);
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                start)
          .count();
  out.steps = sys->steps_taken();
  out.calls = sys->calls_completed_total();
  out.trace_entries = sys->trace().size();
  out.view_bytes = 0;
  for (int p = 0; p < sys->num_processes(); ++p) {
    out.view_bytes += sys->process_view(p).size();
  }
  if (secs > 0) {
    out.steps_per_sec =
        std::max(out.steps_per_sec, static_cast<double>(out.steps) / secs);
  }
}

double print_t8a() {
  // Best of 3 per mode, timed in interleaved rounds that alternate which
  // mode goes first, so a noisy stretch of the host slows both modes
  // rather than one of them.
  using runtime::RecordingMode;
  ModeRun full;
  ModeRun counts;
  for (int round = 0; round < 3; ++round) {
    if (round % 2 == 0) {
      run_mode_once(RecordingMode::kFull, full);
      run_mode_once(RecordingMode::kCountsOnly, counts);
    } else {
      run_mode_once(RecordingMode::kCountsOnly, counts);
      run_mode_once(RecordingMode::kFull, full);
    }
  }
  util::Table table(
      "T8a: recording modes, max-scan 8x2000 calls round-robin (T5 workload)",
      {"mode", "steps", "calls", "trace_entries", "view_bytes", "Msteps_per_s",
       "speedup"});
  const auto row = [](const char* name, const ModeRun& m, double speedup) {
    return std::vector<std::string>{
        name,
        util::Table::fmt(static_cast<std::int64_t>(m.steps)),
        util::Table::fmt(static_cast<std::int64_t>(m.calls)),
        util::Table::fmt(static_cast<std::int64_t>(m.trace_entries)),
        util::Table::fmt(static_cast<std::int64_t>(m.view_bytes)),
        util::Table::fmt(m.steps_per_sec / 1e6, 1),
        util::Table::fmt(speedup, 2)};
  };
  const double speedup =
      full.steps_per_sec > 0 ? counts.steps_per_sec / full.steps_per_sec : 0;
  table.add_row(row("kFull", full, 1.0));
  table.add_row(row("kCountsOnly", counts, speedup));
  bench::emit(table);
  return speedup;
}

void print_t8b() {
  struct Model {
    const char* family;
    int n;
    int calls;
  };
  constexpr Model kModels[] = {
      {"maxscan", 2, 1},        {"maxscan", 2, 2}, {"simple-oneshot", 2, 1},
      {"simple-oneshot", 3, 1}, {"bounded", 2, 1}, {"sqrt-oneshot", 2, 1},
  };
  util::Table table("T8b: POR explorer vs full DFS (small model checks)",
                    {"model", "full_nodes", "full_execs", "por_nodes",
                     "por_execs", "pruned", "nodes_saved_pct"});
  for (const Model& m : kModels) {
    api::ScenarioSpec spec;
    spec.n = m.n;
    spec.calls_per_process = m.calls;
    const runtime::SystemFactory sys_factory =
        api::family(m.family).factory(spec);
    const verify::InstanceFactory factory = [&sys_factory]() {
      verify::ExplorationInstance inst;
      inst.sys = sys_factory();
      inst.check = []() -> std::optional<std::string> { return std::nullopt; };
      return inst;
    };
    verify::ExploreOptions opts;
    const auto full = verify::explore_all_executions(factory, opts);
    opts.por = true;
    const auto reduced = verify::explore_all_executions(factory, opts);
    const double saved =
        full.nodes > 0
            ? 100.0 * static_cast<double>(full.nodes - reduced.nodes) /
                  static_cast<double>(full.nodes)
            : 0.0;
    table.add_row({std::string(m.family) + " n=" + std::to_string(m.n) +
                       " c=" + std::to_string(m.calls),
                   util::Table::fmt(static_cast<std::int64_t>(full.nodes)),
                   util::Table::fmt(static_cast<std::int64_t>(full.executions)),
                   util::Table::fmt(static_cast<std::int64_t>(reduced.nodes)),
                   util::Table::fmt(
                       static_cast<std::int64_t>(reduced.executions)),
                   util::Table::fmt(
                       static_cast<std::int64_t>(reduced.sleep_pruned)),
                   util::Table::fmt(saved, 1)});
  }
  bench::emit(table);
}

// ---- timing section --------------------------------------------------------

void BM_SimStepsFull(benchmark::State& state) {
  for (auto _ : state) {
    const auto inst = t5_instance(runtime::RecordingMode::kFull);
    runtime::run_round_robin(inst->system(), std::uint64_t{1} << 32);
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(inst->system().steps_taken()));
  }
}
BENCHMARK(BM_SimStepsFull)->Unit(benchmark::kMillisecond);

void BM_SimStepsCountsOnly(benchmark::State& state) {
  for (auto _ : state) {
    const auto inst = t5_instance(runtime::RecordingMode::kCountsOnly);
    runtime::run_round_robin(inst->system(), std::uint64_t{1} << 32);
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(inst->system().steps_taken()));
  }
}
BENCHMARK(BM_SimStepsCountsOnly)->Unit(benchmark::kMillisecond);

// Scan cost on wide registers: m registers each holding a TsRecord whose
// id-sequence is m long (the Algorithm 4 worst case near the last phase).
// The value scan compares O(m) sequences of length O(m) per double collect;
// the version scan compares m integers. DirectCtx completes synchronously,
// so one resumed ProcessTask is one scan.
constexpr int kScanRegs = 32;

atomicmem::AtomicMemory<core::TsRecord>& scan_memory() {
  static auto* mem = [] {
    auto* m = new atomicmem::AtomicMemory<core::TsRecord>(
        kScanRegs, core::TsRecord::bottom());
    std::vector<core::TsId> seq;
    for (int r = 0; r < kScanRegs; ++r) {
      seq.push_back(core::TsId{r % 4, r});
      m->write(r, core::TsRecord::make(seq, r + 1));
    }
    return m;
  }();
  return *mem;
}

runtime::ProcessTask value_scan_program(
    atomicmem::DirectCtx<core::TsRecord>& ctx, std::uint64_t* collects) {
  auto scan = co_await snapshot::double_collect_scan(ctx, kScanRegs);
  *collects += scan.collects;
}

runtime::ProcessTask versioned_scan_program(
    atomicmem::DirectCtx<core::TsRecord>& ctx, std::uint64_t* collects) {
  auto scan = co_await snapshot::versioned_double_collect_scan(ctx, kScanRegs);
  *collects += scan.collects;
}

template <class Program>
void run_scan_bench(benchmark::State& state, Program program) {
  auto& mem = scan_memory();
  std::atomic<std::uint64_t> clock{0};
  atomicmem::DirectCtx<core::TsRecord> ctx(&mem, 0, &clock);
  std::uint64_t collects = 0;
  for (auto _ : state) {
    runtime::ProcessTask task = program(ctx, &collects);
    task.handle().resume();
    STAMPED_ASSERT(task.done());
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(collects);
}

void BM_ValueScan(benchmark::State& state) {
  run_scan_bench(state, [](auto& ctx, std::uint64_t* c) {
    return value_scan_program(ctx, c);
  });
}
BENCHMARK(BM_ValueScan);

void BM_VersionedScan(benchmark::State& state) {
  run_scan_bench(state, [](auto& ctx, std::uint64_t* c) {
    return versioned_scan_program(ctx, c);
  });
}
BENCHMARK(BM_VersionedScan);

void explorer_bench(benchmark::State& state, bool por) {
  api::ScenarioSpec spec;
  spec.n = 3;
  const runtime::SystemFactory sys_factory =
      api::family("simple-oneshot").factory(spec);
  const verify::InstanceFactory factory = [&sys_factory]() {
    verify::ExplorationInstance inst;
    inst.sys = sys_factory();
    inst.check = []() -> std::optional<std::string> { return std::nullopt; };
    return inst;
  };
  verify::ExploreOptions opts;
  opts.por = por;
  for (auto _ : state) {
    const auto result = verify::explore_all_executions(factory, opts);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(result.executions));
  }
}

void BM_ExplorerFullDfs(benchmark::State& state) {
  explorer_bench(state, false);
}
BENCHMARK(BM_ExplorerFullDfs)->Unit(benchmark::kMillisecond);

void BM_ExplorerPor(benchmark::State& state) { explorer_bench(state, true); }
BENCHMARK(BM_ExplorerPor)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const double speedup = print_t8a();
  print_t8b();
  std::cout << "T8 speedup check: kCountsOnly is " << util::Table::fmt(speedup, 2)
            << "x kFull steps/sec — target >= 5x: "
            << (speedup >= 5.0 ? "PASS" : "MISSED")
            << ", CI hard floor >= 4x: " << (speedup >= 4.0 ? "PASS" : "FAIL")
            << "\n\n";
  // In table-only (CI) mode the speedup is a real gate: the baseline diff
  // deliberately puts huge tolerances on the throughput columns (timing
  // noise must not fail a counter diff), so this exit code is the only thing
  // standing between a recording-mode perf regression and a green build.
  // The hard floor sits at 4x, below the 5x target, so a co-tenant CPU burst
  // on a shared CI runner (measured locally at ~6.2x) cannot flake the
  // build, while a genuine regression toward parity still fails it.
  if (stamped::bench::table_only(argc, argv)) return speedup >= 4.0 ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
