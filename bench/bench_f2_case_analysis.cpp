// F2 — Figure 2: the Case 1 / Case 2 analysis of the Section 4 construction.
//
// "After the block-write, processes are run until some new column j' reaches
// the diagonal... Case 1: columns 1..j still have height at least l-j'.
// Case 2: the diagonal is reached at column j+1 after two block writes. This
// can only happen if at least half of the unshaded space became shaded."
//
// Consequence (Theorem 1.2's accounting): Case 2 occurs at most log2(n)
// times, so l decays by at most log2(n) and j_last >= m - log n - 2.
#include "bench_common.hpp"

#include <cmath>

#include "adversary/oneshot_builder.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

void print_rounds(const char* name, const runtime::SystemFactory& factory,
                  int n) {
  auto result = adversary::build_oneshot_covering(factory, n);
  util::Table table(
      std::string("F2: per-round case analysis, ") + name + ", n=" +
          std::to_string(n) + " (m=" + std::to_string(result.m) + ")",
      {"round", "case", "nu", "j", "l", "idle", "sched_len"});
  for (const auto& step : result.steps) {
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(step.round)),
         step.round == 0 ? "init" : util::Table::fmt(static_cast<std::int64_t>(
                                        step.case_kind)),
         util::Table::fmt(static_cast<std::int64_t>(step.nu)),
         util::Table::fmt(static_cast<std::int64_t>(step.j_after)),
         util::Table::fmt(static_cast<std::int64_t>(step.l_after)),
         util::Table::fmt(static_cast<std::int64_t>(step.idle_after)),
         util::Table::fmt(static_cast<std::int64_t>(step.schedule_length))});
  }
  bench::emit(table);
  std::cout << "case2_count=" << result.case2_count
            << "  log2(n)=" << std::log2(static_cast<double>(n))
            << "  (paper: case2 <= log2 n)\n"
            << "j_last=" << result.j_last << "  m-log2(n)-2="
            << result.m - std::log2(static_cast<double>(n)) - 2
            << "  (paper: j_last >= m - log n - 2 when stopping at l-j<=2)\n\n";
}

void print_case_summary() {
  util::Table table("F2b: Case 2 occurrences vs the log2(n) budget",
                    {"n", "alg", "case2", "log2(n)", "j_last",
                     "m-log2(n)-2", "stop"});
  for (int n : {16, 32, 48, 64, 80}) {
    for (const char* alg : {"alg4", "simple"}) {
      const auto factory = bench::family_factory(
          std::string(alg) == "alg4" ? "sqrt-oneshot" : "simple-oneshot", n);
      auto result = adversary::build_oneshot_covering(factory, n);
      table.add_row(
          {util::Table::fmt(static_cast<std::int64_t>(n)), alg,
           util::Table::fmt(static_cast<std::int64_t>(result.case2_count)),
           util::Table::fmt(std::log2(static_cast<double>(n))),
           util::Table::fmt(static_cast<std::int64_t>(result.j_last)),
           util::Table::fmt(result.m - std::log2(static_cast<double>(n)) - 2),
           result.stop_reason});
    }
  }
  bench::emit(table);
}

void BM_BuilderRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = adversary::build_oneshot_covering(
        bench::family_factory("simple-oneshot", n), n);
    benchmark::DoNotOptimize(result.case2_count);
  }
}
BENCHMARK(BM_BuilderRound)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  print_rounds("Algorithm 4", bench::family_factory("sqrt-oneshot", 50), 50);
  print_rounds("simple (Section 5)",
               bench::family_factory("simple-oneshot", 50), 50);
  print_case_summary();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
