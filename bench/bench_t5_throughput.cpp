// T5 — Wait-free getTS throughput under real hardware concurrency.
//
// Lemma 6.14 (and Lemma 5.1) make the algorithms wait-free; this harness
// measures what that costs on real atomics. The table is generated from
// api::registry(): every family that provides make_native() is timed
// through the same generic driver (bench/generic_driver.hpp), so adding a
// family to the registry adds it to this table.
//
// Workload shapes:
//   (batch)  — one-shot objects are single-use: T threads each take one
//              timestamp from a fresh object, repeated for 2000/T batches;
//              object construction and thread spawn are part of the cost.
//   (M)      — Algorithm 4's bounded-M generalization: persistent threads on
//              one object, calls_per_thread getTS calls each.
//   plain    — long-lived objects: persistent threads on one object.
//
// Every column runs through the same DirectCtx harness (the native
// backend), so the comparison is apples-to-apples: each call draws its
// response stamp from the shared event clock that the history machinery
// uses (register ops leave that clock alone), and so does its invocation
// unless it is not its process's first call, which takes the half-step
// after the previous response instead; each call records itself in its
// process's arena. In particular the fetchadd column measures the
// baseline *family* under that harness, not the bare primitive — the
// bare-atomic cost is BM_FetchAddGetTs in the timing section below.
//
// Expected shape: fetch&add >> max-scan > bounded > simple > Algorithm 4 per
// call (record registers pay pointer-swap + allocation costs); no run ever
// stalls.
//
// Note (PR 4): every AtomicMemory write now also maintains the cell's
// version clock for versioned_read (inline cells: one uncontended CAS plus
// two seq_cst counter ops bracketing the store, which serializes racing
// writers to the same cell — writes to inline cells are no longer strictly
// wait-free under MWMR write contention; node cells: one fetch_add,
// still lock-free). That shaves a constant off every column here — an
// accepted cost of the version-clock scan; these timing columns are
// informational, not baseline-gated. The bare-primitive fetch&add number
// (BM_FetchAddGetTs below) uses core::FetchAddTimestamp's own std::atomic
// and is unaffected.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include <atomic>

#include "atomicmem/atomic_memory.hpp"
#include "core/fetchadd_baseline.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;
using atomicmem::AtomicMemory;

/// One column of the throughput table: a registry family plus its workload
/// shape. calls == 1 selects batch mode (2000/T single-use batches); larger
/// values run persistent threads on one object.
struct Workload {
  const char* family;
  const char* label;
  int calls_per_thread;
};

constexpr Workload kWorkloads[] = {
    {"simple-oneshot", "simple(batch)", 1},
    {"sqrt-oneshot", "alg4(batch)", 1},
    {"growing-oneshot", "growing(batch)", 1},
    {"sqrt-oneshot", "alg4(M=4000/thr)", 4000},
    {"maxscan", "maxscan", 50000},
    {"bounded", "bounded", 10000},
    {"fetchadd", "fetchadd", 200000},
};

void print_table() {
  std::vector<std::string> headers{"threads"};
  for (const Workload& w : kWorkloads) headers.emplace_back(w.label);
  util::Table table("T5: getTS throughput (ops/sec), real threads",
                    std::move(headers));
  for (int t : {1, 2, 4, 8}) {
    std::vector<std::string> row{util::Table::fmt(static_cast<std::int64_t>(t))};
    for (const Workload& w : kWorkloads) {
      const api::TimestampFamily& fam = api::family(w.family);
      STAMPED_ASSERT_MSG(fam.make_native != nullptr,
                         "family '" << fam.name << "' has no native form");
      api::ScenarioSpec spec;
      spec.n = t;
      spec.calls_per_process = w.calls_per_thread;
      const int batches = w.calls_per_thread == 1 ? 2000 / t : 1;
      row.push_back(
          util::Table::fmt(bench::threaded_throughput(fam, spec, batches), 0));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table);
  std::cout << "note: (batch) columns include per-batch object construction "
               "and thread spawn (one-shot objects are single-use); the "
               "other columns use persistent threads on one object — the "
               "per-call cost.\n\n";
}

void BM_FetchAddGetTs(benchmark::State& state) {
  static core::FetchAddTimestamp ts;
  for (auto _ : state) benchmark::DoNotOptimize(ts.getts());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchAddGetTs)->Threads(1)->Threads(2)->Threads(4);

void BM_MaxScanGetTsThreaded(benchmark::State& state) {
  static AtomicMemory<std::int64_t> mem(16, 0);
  const int pid = state.thread_index() % 16;
  std::int64_t mx = 0;
  for (auto _ : state) {
    mx = 0;
    for (int i = 0; i < 16; ++i) mx = std::max(mx, mem.read(i));
    mem.write(pid, mx + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxScanGetTsThreaded)->Threads(1)->Threads(2)->Threads(4);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
