// Covering explorer — run the Section 4 lower-bound construction against a
// chosen one-shot implementation and watch the covering grid grow (the
// interactive version of Figures 1 and 2).
//
//   build/examples/covering_explorer [alg4|simple] [n]
//
// Prints the grid after the initial (j1, m-j1)-full configuration and after
// every extension round, with the Case 1 / Case 2 bookkeeping.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "adversary/oneshot_builder.hpp"
#include "api/registry.hpp"
#include "util/grid.hpp"

int main(int argc, char** argv) {
  using namespace stamped;
  std::string alg = argc > 1 ? argv[1] : "alg4";
  const int n = argc > 2 ? std::atoi(argv[2]) : 50;
  if (n < 4 || n > 512) {
    std::cerr << "n must be in [4, 512]\n";
    return 1;
  }
  runtime::SystemFactory factory;
  if (alg == "alg4") {
    factory = api::family("sqrt-oneshot").factory({.n = n});
  } else if (alg == "simple") {
    factory = api::family("simple-oneshot").factory({.n = n});
  } else {
    std::cerr << "usage: covering_explorer [alg4|simple] [n]\n";
    return 1;
  }

  std::cout << "Section 4 covering construction vs '" << alg << "', n=" << n
            << "\n\n";
  auto result = adversary::build_oneshot_covering(factory, n);

  for (const auto& step : result.steps) {
    if (step.round == 0) {
      std::cout << "== initial step: Lemma 4.1 from C0, shortest prefix "
                   "reaching the diagonal ==\n";
    } else {
      std::cout << "== round " << step.round << ": Case " << step.case_kind
                << ", nu=" << step.nu << " new column(s) ==\n";
    }
    std::cout << "j=" << step.j_after << " l=" << step.l_after
              << " idle=" << step.idle_after
              << " schedule_steps=" << step.schedule_length << '\n'
              << util::render_covering_grid(step.ordered_sig, step.l_after,
                                            step.j_after - 1)
              << '\n';
  }

  std::cout << "== result ==\n" << result.summary() << '\n';
  std::cout << "theorem 1.2 yardsticks: m=" << result.m
            << ", m - log2(n) - 2 = "
            << result.m - std::log2(static_cast<double>(n)) - 2
            << ", case2 budget log2(n) = "
            << std::log2(static_cast<double>(n)) << '\n';
  return result.all_checks_ok ? 0 : 1;
}
