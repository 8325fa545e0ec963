// F1 — Figure 1: the covering grid of the Section 4 construction.
//
// "Configuration C1 must have a column j that reaches to the diagonal. Hence
// there are j registers each covered with m-j processes."
//
// This benchmark runs the executable construction against both one-shot
// algorithms and renders the ordered-signature grid at the initial
// (j1, m-j1)-full configuration and at the final configuration, exactly as in
// the paper's figure: columns are registers sorted by cover count, the
// stepped diagonal starts at height l-1.
#include "bench_common.hpp"

#include "adversary/oneshot_builder.hpp"
#include "util/grid.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

void render_for(const char* name, const runtime::SystemFactory& factory,
                int n) {
  auto result = adversary::build_oneshot_covering(factory, n);
  std::cout << "== F1: covering grid, " << name << ", n=" << n
            << " (m=" << result.m << ") ==\n";
  if (!result.steps.empty()) {
    const auto& first = result.steps.front();
    std::cout << "-- after the initial step (j1=" << first.j_after
              << ", (j, m-j)-full) --\n"
              << util::render_covering_grid(first.ordered_sig, result.m,
                                            first.j_after - 1)
              << util::summarize_signature(first.ordered_sig) << "\n";
  }
  std::cout << "-- final configuration (j_last=" << result.j_last
            << ", l_last=" << result.l_last << ", stop=" << result.stop_reason
            << ") --\n"
            << util::render_covering_grid(result.final_ordered_sig,
                                          result.l_last, result.j_last - 1)
            << util::summarize_signature(result.final_ordered_sig) << "\n"
            << result.summary() << "\n\n";
}

void print_grids() {
  for (int n : {24, 50}) {
    render_for("Algorithm 4", bench::family_factory("sqrt-oneshot", n), n);
    render_for("simple (Section 5)", bench::family_factory("simple-oneshot", n),
               n);
  }
}

void BM_OneShotBuilder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = adversary::build_oneshot_covering(
        bench::family_factory("sqrt-oneshot", n), n);
    benchmark::DoNotOptimize(result.j_last);
  }
}
BENCHMARK(BM_OneShotBuilder)->Arg(24)->Arg(50);

}  // namespace

int main(int argc, char** argv) {
  print_grids();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
