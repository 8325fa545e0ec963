// T14 — Crash recovery of the sharded service.
//
//   T14a (gated, exact): for every family x shards {1, 2, 4}, the crash
//        adversary kills two clients within their first 10 own-steps, often
//        mid-getTS, and the run must end with survivors finished and every
//        history layer clean. A sharded call takes no lock and waits on
//        nobody, so a crashed client cannot hold up a survivor. All columns
//        are deterministic simulator integers and diff exactly; the binary
//        exits non-zero if any row fails.
#include "bench_common.hpp"

#include "api/registry.hpp"
#include "runtime/scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

constexpr std::uint64_t kSimBudget = std::uint64_t{1} << 18;

runtime::CrashPlan early_crashes() {
  runtime::CrashPlan plan;
  plan.crashes = 2;
  plan.restart = false;
  plan.max_victim_steps = 10;
  return plan;
}

api::ScenarioSpec sim_spec(const api::TimestampFamily& fam, int shards) {
  api::ScenarioSpec spec;
  spec.n = 6;
  spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 3;
  spec.seed = 11;
  spec.universe_bound = 64;  // bounded family: window covers every call
  spec.shard.shards = shards;
  return spec;
}

bool print_t14a() {
  util::Table table(
      "T14a: crash two clients, survivors must finish (sim, seed 11)",
      {"family", "shards", "crashes", "steps", "survivors", "ok"});
  bool all_ok = true;
  for (const api::TimestampFamily& fam : api::registry()) {
    for (int shards : {1, 2, 4}) {
      const api::ScenarioReport rep = api::Harness{kSimBudget}.run_scenario(
          fam, sim_spec(fam, shards), api::crash_restart(early_crashes()));
      all_ok = all_ok && rep.ok() && rep.survivors_finished;
      table.add_row(
          {fam.name, util::Table::fmt(static_cast<std::int64_t>(shards)),
           util::Table::fmt(static_cast<std::int64_t>(rep.crashes)),
           util::Table::fmt(static_cast<std::int64_t>(rep.steps)),
           util::Table::fmt(
               static_cast<std::int64_t>(rep.survivors_finished ? 1 : 0)),
           util::Table::fmt(static_cast<std::int64_t>(rep.ok() ? 1 : 0))});
    }
  }
  bench::emit(table);
  return all_ok;
}

}  // namespace

int main() {
  const bool t14a_ok = print_t14a();
  std::cout << "T14a crash-recovery gate: every row's survivors finish and "
               "check clean: "
            << (t14a_ok ? "PASS" : "FAIL") << "\n\n";
  return t14a_ok ? 0 : 1;
}
