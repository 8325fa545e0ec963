// T1 — Long-lived timestamp space (Theorem 1.1 + the Theta(n) upper bound).
//
// Paper claims reproduced here:
//   lower bound:  n/6 - 1 registers (Theorem 1.1)
//   upper bound:  n - 1 (Ellen-Fatourou-Ruppert, cited) / n (our max-scan)
//   construction: a (3, floor(n/2))-configuration covering >= floor(n/6)
//                 registers is reachable (Section 3)
//
// Expected shape: all columns grow linearly in n; the measured covered count
// sits between the lower-bound line and the register allocation.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include "adversary/longlived_builder.hpp"
#include "util/bounds.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

void print_table() {
  const api::TimestampFamily& maxscan = api::family("maxscan");
  util::Table table(
      "T1: long-lived space vs n (lower n/6-1 | EFR n-1 | max-scan used | "
      "(3,k)-covered)",
      {"n", "lower(n/6-1)", "EFR(n-1)", "maxscan_regs", "regs_written",
       "covered_3k", "k=floor(n/2)"});
  for (int n : {6, 12, 24, 48, 96, 192, 384, 768}) {
    // Measured registers written by a full run (every process, 2 calls each).
    api::ScenarioSpec spec;
    spec.n = n;
    spec.calls_per_process = 2;
    spec.seed = static_cast<std::uint64_t>(n);
    const int written =
        bench::registers_written(maxscan, spec, api::seeded_random());

    // The Section 3 construction (covered registers in a (3,k)-config).
    api::ScenarioSpec adv_spec;
    adv_spec.n = n;
    adv_spec.calls_per_process = 8;
    adversary::LongLivedBuilderOptions opts;
    opts.recurrence_rounds = 4;
    auto built = adversary::build_longlived_covering(
        maxscan.factory(adv_spec), n, n / 2, opts);

    table.add_row({util::Table::fmt(static_cast<std::int64_t>(n)),
                   util::Table::fmt(util::bounds::longlived_lower(n)),
                   util::Table::fmt(util::bounds::longlived_upper_efr(n)),
                   util::Table::fmt(
                       util::bounds::longlived_upper_maxscan(n)),
                   util::Table::fmt(static_cast<std::int64_t>(written)),
                   util::Table::fmt(
                       static_cast<std::int64_t>(built.registers_covered)),
                   util::Table::fmt(static_cast<std::int64_t>(n / 2))});
  }
  bench::emit(table);
}

void BM_MaxScanGetTsSim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sys = bench::family_factory("maxscan", n, 1 << 20)();
  int p = 0;
  for (auto _ : state) {
    runtime::run_solo_until_calls_complete(*sys, p, 1, 1 << 20);
    p = (p + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxScanGetTsSim)->Arg(8)->Arg(64)->Arg(256);

void BM_LongLivedBuilder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    adversary::LongLivedBuilderOptions opts;
    opts.recurrence_rounds = 4;
    auto result = adversary::build_longlived_covering(
        bench::family_factory("maxscan", n, 8), n, n / 2, opts);
    benchmark::DoNotOptimize(result.registers_covered);
  }
}
BENCHMARK(BM_LongLivedBuilder)->Arg(24)->Arg(96);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
