// T2 — One-shot timestamp space (Theorems 1.2 + 1.3, Section 5).
//
// Paper claims reproduced here:
//   lower bound:  sqrt(2n) - log2(n) - O(1) registers (Theorem 1.2)
//   simple alg:   ceil(n/2) registers, all written (Section 5)
//   Algorithm 4:  allocates ceil(2*sqrt(n)); never writes the sentinel; the
//                 number of registers actually written stays below the
//                 allocation under sequential, random, and adversarial
//                 schedules (Theorem 1.3 / Lemma 6.5)
//
// Expected shape: simple grows linearly, Algorithm 4 as Theta(sqrt(n)); the
// crossover where Algorithm 4 beats simple is around n = 16; the lower-bound
// curve stays below Algorithm 4's usage-plus-constant.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include "adversary/oneshot_builder.hpp"
#include "util/bounds.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

void print_space_table() {
  const api::TimestampFamily& alg4 = api::family("sqrt-oneshot");
  util::Table table(
      "T2a: one-shot space vs n (lower | simple ceil(n/2) | Alg4 alloc "
      "2*ceil(sqrt n) | Alg4 written seq/random)",
      {"n", "lower", "simple", "alg4_alloc", "alg4_seq", "alg4_stag4",
       "alg4_rand"});
  for (int n : {4, 8, 16, 32, 64, 128, 256, 512}) {
    api::ScenarioSpec spec;
    spec.n = n;
    const int seq = bench::registers_written(alg4, spec, api::sequential());
    const int stag = bench::worst_registers_written(
        alg4, spec, api::staggered(4), bench::standard_seeds());
    const int rnd = bench::worst_registers_written(
        alg4, spec, api::seeded_random(), bench::standard_seeds());
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(util::bounds::oneshot_lower(n)),
         util::Table::fmt(util::bounds::oneshot_upper_simple(n)),
         util::Table::fmt(util::bounds::oneshot_upper_sqrt(n)),
         util::Table::fmt(static_cast<std::int64_t>(seq)),
         util::Table::fmt(static_cast<std::int64_t>(stag)),
         util::Table::fmt(static_cast<std::int64_t>(rnd))});
  }
  bench::emit(table);
}

void print_adversarial_table() {
  util::Table table(
      "T2b: adversarial (Section 4 construction) — registers covered/written "
      "when the covering adversary drives the implementation",
      {"n", "m=floor(sqrt 2n)", "alg", "j_last", "covered", "written",
       "stop"});
  for (int n : {16, 32, 48, 64}) {
    for (const char* alg : {"alg4", "simple"}) {
      const api::TimestampFamily& fam = api::family(
          std::string(alg) == "alg4" ? "sqrt-oneshot" : "simple-oneshot");
      api::ScenarioSpec spec;
      spec.n = n;
      auto result = adversary::build_oneshot_covering(fam.factory(spec), n);
      table.add_row(
          {util::Table::fmt(static_cast<std::int64_t>(n)),
           util::Table::fmt(static_cast<std::int64_t>(result.m)), alg,
           util::Table::fmt(static_cast<std::int64_t>(result.j_last)),
           util::Table::fmt(
               static_cast<std::int64_t>(result.registers_covered)),
           util::Table::fmt(
               static_cast<std::int64_t>(result.registers_written)),
           result.stop_reason});
    }
  }
  bench::emit(table);
}

void BM_SimpleOneShotFullRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sys = bench::family_factory("simple-oneshot", n)();
    util::Rng rng(1);
    runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
    benchmark::DoNotOptimize(sys->registers_written());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimpleOneShotFullRun)->Arg(16)->Arg(64)->Arg(256);

void BM_SqrtOneShotFullRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sys = bench::family_factory("sqrt-oneshot", n)();
    util::Rng rng(1);
    runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
    benchmark::DoNotOptimize(sys->registers_written());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqrtOneShotFullRun)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  print_space_table();
  print_adversarial_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
