// Fault tolerance of the sharded service: a sharded call takes no lock and
// waits on nobody, so a client frozen mid-call delays no other client, and
// restarted clients run their programs again to clean histories.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"
#include "runtime/scheduler.hpp"
#include "shard/compose.hpp"

namespace {

using namespace stamped;

// Steps client 0 `frozen_after` times, then never again, and runs every
// other client solo to completion, recording how many steps each one took.
api::ScheduleSource freeze_client_zero(int frozen_after,
                                       std::vector<std::uint64_t>* steps) {
  api::ScheduleSource src;
  src.name = "freeze-0-after-" + std::to_string(frozen_after);
  src.drive = [frozen_after, steps](runtime::ISystem& sys, util::Rng&,
                                    std::uint64_t max_steps) {
    for (int i = 0; i < frozen_after && !sys.finished(0); ++i) sys.step(0);
    steps->assign(static_cast<std::size_t>(sys.num_processes()), 0);
    for (int p = 1; p < sys.num_processes(); ++p) {
      runtime::run_solo_until(
          sys, p, [](runtime::ISystem&) { return false; }, max_steps);
      (*steps)[static_cast<std::size_t>(p)] = sys.steps_taken_by(p);
    }
  };
  return src;
}

TEST(ShardWaitFreedom, FrozenClientDelaysNobody) {
  // Client 0 stops after k of its steps, for every k from 0 through one full
  // call. Every other client must still finish in exactly its solo step
  // count — (shard width + 1) per call for maxscan, 1 per call for fetchadd
  // — with every history layer clean. A client that had to wait for the
  // frozen one would spend extra steps, or never finish.
  constexpr int kClients = 5;
  constexpr int kCalls = 3;
  for (const char* name : {"maxscan", "fetchadd"}) {
    const bool maxscan = std::string(name) == "maxscan";
    for (const int shards : {1, 2}) {
      const shard::ShardLayout lo = shard::ShardLayout::make(
          kClients, shards, /*rehash_calls=*/false, [](int w) { return w; });
      const auto steps_per_call = [&](int c) -> std::uint64_t {
        if (!maxscan) return 1;
        const int s = lo.shard_of[static_cast<std::size_t>(c)];
        return static_cast<std::uint64_t>(
                   lo.width[static_cast<std::size_t>(s)]) + 1;
      };
      for (int k = 0; k <= static_cast<int>(steps_per_call(0)); ++k) {
        api::ScenarioSpec spec;
        spec.n = kClients;
        spec.calls_per_process = kCalls;
        spec.shard.shards = shards;
        std::vector<std::uint64_t> steps;
        const auto rep = api::Harness{std::uint64_t{1} << 16}.run_scenario(
            api::family(name), spec, freeze_client_zero(k, &steps));
        const std::string where = std::string(name) + " shards=" +
                                  std::to_string(shards) +
                                  " k=" + std::to_string(k);
        EXPECT_TRUE(rep.ok()) << where << ": " << rep.summary();
        for (int p = 1; p < kClients; ++p) {
          EXPECT_EQ(steps[static_cast<std::size_t>(p)],
                    kCalls * steps_per_call(p))
              << where << " client " << p;
        }
        const std::uint64_t frozen_calls =
            k == static_cast<int>(steps_per_call(0)) ? 1 : 0;
        EXPECT_EQ(rep.calls, (kClients - 1) * kCalls + frozen_calls)
            << where;
      }
    }
  }
}

TEST(ShardFaultRecovery, RestartedClientsFinishClean) {
  // Crash WITH restart through the sharded path: a restarted client runs
  // its program again from call 0, and every history layer stays clean.
  // maxscan only: restarting one-shot programs violates their own-register
  // discipline, same as the unsharded families.
  runtime::CrashPlan plan;
  plan.crashes = 4;
  plan.restart = true;
  plan.restart_delay = 6;
  for (const std::uint64_t seed : {11u, 17u, 29u}) {
    api::ScenarioSpec spec;
    spec.n = 6;
    spec.calls_per_process = 3;
    spec.seed = seed;
    spec.shard.shards = 2;
    const auto rep = api::Harness{}.run_scenario(
        api::family("maxscan"), spec, api::crash_restart(plan));
    EXPECT_TRUE(rep.ok()) << "seed=" << seed << ": " << rep.summary();
    EXPECT_TRUE(rep.all_finished) << "seed=" << seed;
    EXPECT_EQ(rep.crashed_down, 0u);
    EXPECT_EQ(rep.restarts, rep.crashes);
  }
}

}  // namespace
