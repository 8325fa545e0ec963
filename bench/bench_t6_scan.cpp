// T6 — The scan substrate (Afek et al.), as used by Algorithm 4's line 13.
//
// Two scans are compared:
//   double-collect (obstruction-free in general; wait-free inside Algorithm 4
//   because writes are bounded — Lemma 6.14)
//   wait-free snapshot scan (helping via embedded views; bounded collects
//   regardless of write rates)
//
// Expected shape: double-collect retries grow with writer contention; the
// wait-free scan's collect count is capped (a writer observed moving twice
// donates its view), at the cost of larger registers.
#include "bench_common.hpp"

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "snapshot/double_collect.hpp"
#include "snapshot/wait_free_snapshot.hpp"
#include "util/table.hpp"
#include "verify/snapshot_checker.hpp"

namespace {

using namespace stamped;
using snapshot::SnapCell;
using SnapSys = runtime::System<SnapCell>;

struct ScanCost {
  double avg_collects = 0;
  double embedded_fraction = 0;
  std::uint64_t scans = 0;
};

/// Runs the snapshot system with `writers` updating processes plus one
/// scanning process, interleaved randomly; reports scan costs.
ScanCost measure_waitfree(int writers, int rounds, std::uint64_t seed) {
  snapshot::ScanLog log;
  auto sys = snapshot::make_snapshot_system(writers + 1, rounds, &log);
  util::Rng rng(seed);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
  runtime::check_no_failures(*sys);
  auto verdict = verify::check_scans_linearizable(*sys, log.snapshot());
  STAMPED_ASSERT_MSG(!verdict.has_value(), *verdict);
  ScanCost cost;
  const auto scans = log.snapshot();
  cost.scans = scans.size();
  std::uint64_t embedded = 0;
  std::uint64_t total_reads = 0;
  for (const auto& s : scans) {
    embedded += s.used_embedded ? 1 : 0;
    total_reads += s.end_step - s.start_step;
  }
  if (!scans.empty()) {
    cost.embedded_fraction =
        static_cast<double>(embedded) / static_cast<double>(scans.size());
    // Steps inside scan intervals include other processes' steps; an
    // approximate per-scan cost indicator.
    cost.avg_collects = static_cast<double>(total_reads) /
                        static_cast<double>(scans.size()) /
                        static_cast<double>(writers + 1);
  }
  return cost;
}

/// Average collects of Algorithm 4's double-collect scan under contention,
/// measured from SqrtStats.
double measure_double_collect(int n, std::uint64_t seed) {
  api::EngineInstance<api::SqrtEngine> inst({.n = n}, api::Backend::kSim);
  util::Rng rng(seed);
  runtime::run_random(inst.system(), rng, std::uint64_t{1} << 32);
  runtime::check_no_failures(inst.system());
  const auto scans = inst.engine().stats().scans();
  if (scans.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& s : scans) total += s.collects;
  return static_cast<double>(total) / static_cast<double>(scans.size());
}

void print_table() {
  util::Table t6a(
      "T6a: Algorithm 4 double-collect scan — avg collects vs contention",
      {"n (callers)", "avg_collects", "min possible"});
  for (int n : {4, 16, 64, 256}) {
    double avg = 0;
    for (std::uint64_t seed : bench::standard_seeds()) {
      avg = std::max(avg, measure_double_collect(n, seed));
    }
    t6a.add_row({util::Table::fmt(static_cast<std::int64_t>(n)),
                 util::Table::fmt(avg), "2"});
  }
  bench::emit(t6a);

  util::Table t6b(
      "T6b: wait-free snapshot scan — cost and helping rate vs writers",
      {"writers", "scans", "rel_interval(steps/proc)", "embedded_frac"});
  for (int writers : {1, 2, 4, 8, 16}) {
    auto cost = measure_waitfree(writers, 4, 99);
    t6b.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(writers)),
         util::Table::fmt(static_cast<std::int64_t>(cost.scans)),
         util::Table::fmt(cost.avg_collects),
         util::Table::fmt(cost.embedded_fraction)});
  }
  bench::emit(t6b);
}

void BM_DoubleCollectSolo(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sys = bench::family_factory("sqrt-oneshot", n)();
    runtime::run_solo_until_calls_complete(*sys, 0, 1, 1 << 20);
    benchmark::DoNotOptimize(sys->steps_taken());
  }
}
BENCHMARK(BM_DoubleCollectSolo)->Arg(16)->Arg(64);

void BM_WaitFreeSnapshotRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sys = snapshot::make_snapshot_system(n, 1, nullptr);
    util::Rng rng(7);
    runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
    benchmark::DoNotOptimize(sys->steps_taken());
  }
}
BENCHMARK(BM_WaitFreeSnapshotRound)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
