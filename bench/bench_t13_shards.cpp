// T13 — Sharded timestamp service: composition correctness and native
// throughput.
//
// The sharded service (src/shard/) routes clients across independent family
// instances; each call runs its family getTS on its shard and draws one
// global epoch. Two tables:
//
//   T13a (gated, exact): simulated round-robin run of every registry family
//        at shards in {1, 2, 4} with per-call rehash routing, full checkers
//        on (composed property, per-shard property, cross-shard
//        monotonicity). Every column is a deterministic integer, and the
//        binary exits non-zero if any row's checks fail.
//
//   T13b (gate + informational): closed-loop native traffic grid over
//        clients x shards for the maxscan family. The calls/sec column is
//        OS-scheduled and diffed with an effectively-infinite tolerance; the
//        exact columns are the call count and the cross_ok verdict of a
//        small fully-checked run per row, which the binary also gates.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include "api/registry.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

bool print_t13a() {
  util::Table table(
      "T13a: sharded service self-check (sim round-robin, n=8, rehash)",
      {"family", "shards", "calls", "regs", "cross_pairs", "ok"});
  bool all_ok = true;
  for (const api::TimestampFamily& fam : api::registry()) {
    for (int s : {1, 2, 4}) {
      api::ScenarioSpec spec;
      spec.n = 8;
      spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 4;
      spec.shard.shards = s;
      // Per-call rehash routing makes consecutive calls of one client hop
      // shards, so the cross-shard checker has real obligations to hold
      // (one-shot families make one call and legitimately report 0 pairs).
      spec.shard.rehash_calls = true;
      const api::ScenarioReport rep =
          api::Harness{}.run_scenario(fam, spec, api::round_robin());
      const bool ok = rep.ok() && rep.all_finished;
      all_ok = all_ok && ok;
      table.add_row(
          {fam.name, util::Table::fmt(static_cast<std::int64_t>(s)),
           util::Table::fmt(static_cast<std::int64_t>(rep.calls)),
           util::Table::fmt(rep.registers_allocated),
           util::Table::fmt(static_cast<std::int64_t>(rep.cross_shard_pairs)),
           util::Table::fmt(static_cast<std::int64_t>(ok ? 1 : 0))});
    }
  }
  bench::emit(table);
  return all_ok;
}

/// One native timing run of the maxscan family through the sharded service.
api::ScenarioReport run_native_shards(int clients, int shards, int calls) {
  api::ScenarioSpec spec;
  spec.n = clients;
  spec.calls_per_process = calls;
  spec.backend = api::Backend::kNative;
  spec.native_threads = 0;  // hardware concurrency
  spec.shard.shards = shards;
  return api::Harness{}.run_scenario(api::family("maxscan"), spec,
                                     api::native_os(), api::Checkers::none());
}

/// Small fully-checked native run at the same geometry (fewer calls — the
/// checkers are quadratic), rehash routing on so calls hop shards.
bool checked_cross_ok(int clients, int shards) {
  api::ScenarioSpec spec;
  spec.n = clients;
  spec.calls_per_process = 8;
  spec.backend = api::Backend::kNative;
  spec.native_threads = 0;
  spec.shard.shards = shards;
  spec.shard.rehash_calls = true;
  const api::ScenarioReport rep = api::Harness{}.run_scenario(
      api::family("maxscan"), spec, api::native_os());
  return rep.ok() && rep.all_finished;
}

/// Returns true when every row's checked run is clean.
bool print_t13b() {
  constexpr int kCalls = 64;
  util::Table table(
      "T13b: sharded maxscan closed-loop traffic (native, calls/client=64)",
      {"clients", "shards", "calls", "cps", "cross_ok"});
  bool cross_ok_all = true;
  for (int clients : {8, 32}) {
    for (int shards : {1, 2, 4}) {
      const api::ScenarioReport rep =
          run_native_shards(clients, shards, kCalls);
      const double cps =
          static_cast<double>(rep.calls) / rep.native_elapsed_seconds;
      const bool cross_ok = checked_cross_ok(clients, shards);
      cross_ok_all = cross_ok_all && cross_ok;
      table.add_row(
          {util::Table::fmt(static_cast<std::int64_t>(clients)),
           util::Table::fmt(static_cast<std::int64_t>(shards)),
           util::Table::fmt(static_cast<std::int64_t>(rep.calls)),
           util::Table::fmt(cps, 0),
           util::Table::fmt(static_cast<std::int64_t>(cross_ok ? 1 : 0))});
    }
  }
  bench::emit(table);
  std::cout << "note: cps is OS-load-dependent (CI diffs it with infinite "
               "tolerance); calls and cross_ok are exact.\n\n";
  return cross_ok_all;
}

void BM_ShardedMaxscan(benchmark::State& state) {
  for (auto _ : state) {
    const auto rep = run_native_shards(16, static_cast<int>(state.range(0)),
                                       64);
    benchmark::DoNotOptimize(rep.calls);
  }
  state.SetItemsProcessed(state.iterations() * 16 * 64);
}
BENCHMARK(BM_ShardedMaxscan)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  const bool t13a_ok = print_t13a();
  const bool t13b_ok = print_t13b();
  std::cout << "T13a self-check gate: every family x shard row checked "
            << "clean: " << (t13a_ok ? "PASS" : "FAIL") << "\n";
  std::cout << "T13b cross-shard gate: cross-shard monotonicity clean on "
            << "every row: " << (t13b_ok ? "PASS" : "FAIL") << "\n\n";

  // In table-only (CI) mode both correctness gates hold on any machine.
  if (stamped::bench::table_only(argc, argv)) {
    return (t13a_ok && t13b_ok) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
