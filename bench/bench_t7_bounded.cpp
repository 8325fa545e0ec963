// T7 — Bounded vs unbounded timestamp space (Haldar–Vitányi-style bounded
// object vs the paper's max-scan and Algorithm 4).
//
// The source paper's objects all need unboundedly wide registers (integers
// that grow forever, id-sequences). The bounded object trades register
// *width* for a conditional guarantee: n registers of
// ceil(log2 K) + ceil(log2 (K+1)) bits, where K = 2C+1 covers executions of
// C calls per process (core/bounded_longlived.hpp).
//
// Expected shape:
//   T7a — register *count* matches max-scan (n for both; the bounded object
//         writes all n), but total bits grow as n*log(C) instead of 64n.
//   T7b — against Algorithm 4 (M = n*C calls): Algorithm 4 wins on register
//         count (2*sqrt(M) << n for large n) but its registers hold
//         unbounded id-sequences; the bounded object wins on width.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include "core/bounded_longlived.hpp"
#include "core/maxscan_longlived.hpp"
#include "util/bounds.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

constexpr int kCallsPerProcess = 4;

void print_bits_table() {
  const api::TimestampFamily& bounded = api::family("bounded");
  const int calls = kCallsPerProcess;
  const std::int32_t k = core::bounded_modulus_for(calls);
  // The wraps column runs the same workload with K = 3 < 2C+1: components
  // exhaust the label pool and recycle (the windowed-guarantee regime).
  const std::int32_t k_small = 3;
  util::Table table(
      "T7a: bounded vs max-scan long-lived space (C=" +
          std::to_string(calls) + " calls/process, K=2C+1=" +
          std::to_string(k) + ")",
      {"n", "maxscan_regs", "maxscan_bits_total", "bounded_regs", "K",
       "bounded_bits_reg", "bounded_bits_total", "bounded_written",
       "wraps_K3"});
  for (int n : {4, 8, 16, 32, 64, 128}) {
    api::ScenarioSpec spec;
    spec.n = n;
    spec.calls_per_process = calls;
    spec.universe_bound = k;
    const int written = bench::worst_registers_written(
        bounded, spec, api::seeded_random(), bench::standard_seeds());

    api::ScenarioSpec recycled = spec;
    recycled.universe_bound = k_small;
    const std::int64_t wraps =
        bench::worst_metric(bounded, recycled, api::seeded_random(),
                            bench::standard_seeds(), "wraps");
    const int bits_reg = core::bounded_bits_per_register(k);
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(util::bounds::longlived_upper_maxscan(n)),
         util::Table::fmt(static_cast<std::int64_t>(64) * n),
         util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(static_cast<std::int64_t>(k)),
         util::Table::fmt(static_cast<std::int64_t>(bits_reg)),
         util::Table::fmt(static_cast<std::int64_t>(bits_reg) * n),
         util::Table::fmt(static_cast<std::int64_t>(written)),
         util::Table::fmt(static_cast<std::int64_t>(wraps))});
  }
  bench::emit(table);
}

void print_vs_sqrt_table() {
  const api::TimestampFamily& alg4 = api::family("sqrt-oneshot");
  const api::TimestampFamily& bounded = api::family("bounded");
  const int calls = kCallsPerProcess;
  const std::int32_t k = core::bounded_modulus_for(calls);
  util::Table table(
      "T7b: bounded (n regs, narrow) vs Algorithm 4 (2*ceil(sqrt M) regs, "
      "unbounded width), M = n*C",
      {"n", "M", "alg4_alloc", "alg4_written_rand", "bounded_regs",
       "bounded_written", "bounded_bits_reg"});
  for (int n : {4, 8, 16, 32, 64, 128}) {
    const std::int64_t m_calls = static_cast<std::int64_t>(n) * calls;
    api::ScenarioSpec spec;
    spec.n = n;
    spec.calls_per_process = calls;
    const int alg4_written = bench::worst_registers_written(
        alg4, spec, api::seeded_random(), bench::standard_seeds());
    api::ScenarioSpec bounded_spec = spec;
    bounded_spec.universe_bound = k;
    const int bounded_written = bench::worst_registers_written(
        bounded, bounded_spec, api::seeded_random(), bench::standard_seeds());
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(m_calls),
         util::Table::fmt(util::bounds::oneshot_upper_sqrt(m_calls)),
         util::Table::fmt(static_cast<std::int64_t>(alg4_written)),
         util::Table::fmt(static_cast<std::int64_t>(n)),
         util::Table::fmt(static_cast<std::int64_t>(bounded_written)),
         util::Table::fmt(
             static_cast<std::int64_t>(core::bounded_bits_per_register(k)))});
  }
  bench::emit(table);
}

void BM_BoundedGetTsSim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Huge call budget so the system never finishes during timing; modulus
  // fixed small (K = 9) — the hot path cost is the double-collect scan.
  auto sys = api::family("bounded").factory(
      {.n = n, .calls_per_process = 1 << 20, .universe_bound = 9})();
  int p = 0;
  for (auto _ : state) {
    runtime::run_solo_until_calls_complete(*sys, p, 1, 1 << 20);
    p = (p + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedGetTsSim)->Arg(8)->Arg(64)->Arg(256);

void BM_BoundedFullRunRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sys = bench::family_factory("bounded", n, kCallsPerProcess)();
    util::Rng rng(1);
    runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
    benchmark::DoNotOptimize(sys->registers_written());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoundedFullRunRandom)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  print_bits_table();
  print_vs_sqrt_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
