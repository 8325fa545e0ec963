// T4 — Algorithm 4 internals: phases and invalidation writes (Section 6.3).
//
// Paper claims reproduced here:
//   Lemma 6.5 / Claim 6.13: an execution with M getTS calls has Phi < 2*sqrt(M)
//   phases and at most 2M invalidation writes; only registers R[1..f] are
//   written in phase f (Claim 6.8).
//
// Ablation (core::SqrtVariant::kAlwaysOverwrite): the "always overwrite
// invalid registers" repair is correct but performs more writes; the table
// quantifies the write and space inflation that the paper's line-10 guard
// avoids.
#include "bench_common.hpp"

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "util/bounds.hpp"
#include "util/table.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace stamped;

struct RunOutcome {
  int phases = 0;
  std::int64_t invalidations = 0;
  std::int64_t writes = 0;
  int regs_written = 0;
  bool bounds_ok = true;
};

enum class Workload { kSequential, kStagger4, kStallers, kRandom };

template <core::SqrtVariant Variant>
RunOutcome measure(int n, std::uint64_t seed,
                   Workload workload = Workload::kSequential) {
  // The growing engine's generous pool keeps the ablated variant from
  // tripping the space assertion; the paper variant never needs the room.
  api::EngineInstance<api::GrowingEngine<Variant>> inst({.n = n},
                                                        api::Backend::kSim);
  auto& sys = inst.sim();
  util::Rng rng(seed);
  switch (workload) {
    case Workload::kSequential:
      bench::run_staggered(sys, 1, rng);
      break;
    case Workload::kStagger4:
      bench::run_staggered(sys, 4, rng);
      break;
    case Workload::kStallers:
      bench::run_with_stallers(sys, rng);
      break;
    case Workload::kRandom:
      runtime::run_random(sys, rng, std::uint64_t{1} << 32);
      break;
  }
  runtime::check_no_failures(sys);
  auto analysis = verify::analyze_phases(sys, inst.engine().stats(), n);
  RunOutcome out;
  out.phases = analysis.phases_started;
  out.invalidations = analysis.invalidation_writes;
  out.writes = analysis.total_writes;
  out.regs_written = sys.registers_written();
  // The ablation intentionally exceeds nothing we assert.
  out.bounds_ok =
      Variant == core::SqrtVariant::kPaper ? analysis.bounds_ok() : true;
  return out;
}

void print_phase_table() {
  util::Table table(
      "T4a: phases & invalidation writes vs M (max over workloads: "
      "sequential, groups-of-4, stallers, random; 5 seeds each)",
      {"M", "Phi", "bound 2*sqrt(M)", "invalidations", "bound 2M", "writes",
       "regs_written", "alloc 2*ceil(sqrt M)", "ok"});
  for (int m_calls : {4, 16, 64, 256, 1024}) {
    RunOutcome worst;
    bool ok = true;
    for (Workload w : {Workload::kSequential, Workload::kStagger4,
                       Workload::kStallers, Workload::kRandom}) {
      for (std::uint64_t seed : bench::standard_seeds()) {
        auto out = measure<core::SqrtVariant::kPaper>(m_calls, seed, w);
        worst.phases = std::max(worst.phases, out.phases);
        worst.invalidations = std::max(worst.invalidations, out.invalidations);
        worst.writes = std::max(worst.writes, out.writes);
        worst.regs_written = std::max(worst.regs_written, out.regs_written);
        ok = ok && out.bounds_ok;
      }
    }
    table.add_row(
        {util::Table::fmt(static_cast<std::int64_t>(m_calls)),
         util::Table::fmt(static_cast<std::int64_t>(worst.phases)),
         util::Table::fmt(util::bounds::phase_bound(m_calls)),
         util::Table::fmt(worst.invalidations),
         util::Table::fmt(util::bounds::invalidation_bound(m_calls)),
         util::Table::fmt(worst.writes),
         util::Table::fmt(static_cast<std::int64_t>(worst.regs_written)),
         util::Table::fmt(util::bounds::oneshot_upper_sqrt(m_calls)),
         ok ? "yes" : "NO"});
  }
  bench::emit(table);
}

void print_ablation_table() {
  util::Table table(
      "T4b: ablation — paper's guarded overwrite (line 10) vs always "
      "overwrite (groups-of-4 arrival, max over 5 seeds)",
      {"M", "writes_paper", "writes_always", "regs_paper", "regs_always"});
  for (int m_calls : {16, 64, 256, 1024}) {
    std::int64_t wp = 0, wa = 0;
    int rp = 0, ra = 0;
    for (std::uint64_t seed : bench::standard_seeds()) {
      auto paper = measure<core::SqrtVariant::kPaper>(m_calls, seed,
                                                      Workload::kStagger4);
      auto always = measure<core::SqrtVariant::kAlwaysOverwrite>(
          m_calls, seed, Workload::kStagger4);
      wp = std::max(wp, paper.writes);
      wa = std::max(wa, always.writes);
      rp = std::max(rp, paper.regs_written);
      ra = std::max(ra, always.regs_written);
    }
    table.add_row({util::Table::fmt(static_cast<std::int64_t>(m_calls)),
                   util::Table::fmt(wp), util::Table::fmt(wa),
                   util::Table::fmt(static_cast<std::int64_t>(rp)),
                   util::Table::fmt(static_cast<std::int64_t>(ra))});
  }
  bench::emit(table);
}

void BM_PhaseAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = measure<core::SqrtVariant::kPaper>(n, 1);
    benchmark::DoNotOptimize(out.phases);
  }
}
BENCHMARK(BM_PhaseAnalysis)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  print_phase_table();
  print_ablation_table();
  if (stamped::bench::table_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
