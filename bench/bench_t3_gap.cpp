// T3 — The headline result: the space gap between long-lived and one-shot
// timestamp objects.
//
// Long-lived needs Theta(n) registers (Theorem 1.1 tight against the cited
// n-1 algorithm); one-shot needs only Theta(sqrt(n)) (Theorems 1.2 + 1.3).
// The gap ratio therefore grows as Theta(sqrt(n)).
#include "bench_common.hpp"

#include "util/bounds.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

void print_table() {
  util::Table table(
      "T3: long-lived vs one-shot space gap (ratio ~ sqrt(n)/2)",
      {"n", "longlived_lower", "longlived_used", "oneshot_lower",
       "oneshot_used", "gap_ratio", "sqrt(n)/2"});
  for (int n : {16, 64, 256, 1024, 4096}) {
    const std::int64_t ll_used = util::bounds::longlived_upper_maxscan(n);
    const std::int64_t os_used = util::bounds::oneshot_upper_sqrt(n);
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(util::bounds::longlived_lower(n)),
         util::Table::fmt(ll_used),
         util::Table::fmt(util::bounds::oneshot_lower(n)),
         util::Table::fmt(os_used),
         util::Table::fmt(static_cast<double>(ll_used) /
                          static_cast<double>(os_used)),
         util::Table::fmt(std::sqrt(static_cast<double>(n)) / 2.0)});
  }
  bench::emit(table);
}

void print_measured_table() {
  // Same gap with *measured* register usage from simulator runs.
  util::Table table(
      "T3b: measured gap (registers actually written, worst workload)",
      {"n", "longlived_written", "oneshot_written", "ratio"});
  for (int n : {16, 64, 128, 256}) {
    auto ll = bench::family_factory("maxscan", n)();
    util::Rng rng(static_cast<std::uint64_t>(n) + 7);
    runtime::run_random(*ll, rng, std::uint64_t{1} << 32);
    const int ll_written = ll->registers_written();
    // Sequential arrival is Algorithm 4's space worst case (random
    // interleavings collapse almost all calls into phase 1).
    const int os_written =
        bench::registers_written_sequential(
            bench::family_factory("sqrt-oneshot", n));
    table.add_row({util::Table::fmt(static_cast<std::int64_t>(n)),
                   util::Table::fmt(static_cast<std::int64_t>(ll_written)),
                   util::Table::fmt(static_cast<std::int64_t>(os_written)),
                   util::Table::fmt(static_cast<double>(ll_written) /
                                    static_cast<double>(os_written))});
  }
  bench::emit(table);
}

void BM_GapMeasurement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const int os = bench::max_registers_written_random(
        bench::family_factory("sqrt-oneshot", n), {1});
    benchmark::DoNotOptimize(os);
  }
}
BENCHMARK(BM_GapMeasurement)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_measured_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
