// Smoke test: the full core stack — simulator, schedulers, all three
// timestamp algorithms — on small systems.
#include <gtest/gtest.h>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "api/registry.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace stamped;
using api::Backend;

TEST(Smoke, SimpleOneShotSequential) {
  api::EngineInstance<api::SimpleEngine> inst({.n = 4}, Backend::kSim);
  auto& sys = inst.system();
  // Run processes to completion one after another (sequential execution).
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 1000));
  }
  runtime::check_no_failures(sys);
  auto records = inst.records();
  ASSERT_EQ(records.size(), 4u);
  // Sequential calls must return strictly increasing timestamps.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_TRUE(core::compare(records[i - 1].ts, records[i].ts))
        << records[i - 1].ts << " !< " << records[i].ts;
  }
}

TEST(Smoke, SqrtOneShotSequential) {
  api::EngineInstance<api::SqrtEngine> inst({.n = 6}, Backend::kSim);
  auto& sys = inst.system();
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 10000));
  }
  runtime::check_no_failures(sys);
  auto records = inst.records();
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_TRUE(core::compare(records[i - 1].ts, records[i].ts));
    EXPECT_FALSE(core::compare(records[i].ts, records[i - 1].ts));
  }
}

TEST(Smoke, SqrtOneShotRoundRobin) {
  api::EngineInstance<api::SqrtEngine> inst({.n = 8}, Backend::kSim);
  auto& sys = inst.system();
  runtime::run_round_robin(sys, 1'000'000);
  EXPECT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  EXPECT_EQ(inst.records().size(), 8u);
}

TEST(Smoke, MaxScanLongLived) {
  api::EngineInstance<api::MaxscanEngine> inst(
      {.n = 3, .calls_per_process = 5}, Backend::kSim);
  auto& sys = inst.system();
  util::Rng rng(42);
  runtime::run_random(sys, rng, 1'000'000);
  EXPECT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  EXPECT_EQ(inst.records().size(), 15u);
}

TEST(Smoke, PendingExposesCovering) {
  auto sys = api::family("simple-oneshot").factory({.n = 2})();
  // Process 0 reads R[0] first; after that read it writes R[0].
  auto op0 = sys->pending(0);
  EXPECT_EQ(op0.kind, runtime::OpKind::kRead);
  EXPECT_EQ(op0.reg, 0);
  sys->step(0);
  auto op1 = sys->pending(0);
  EXPECT_EQ(op1.kind, runtime::OpKind::kWrite);
  EXPECT_TRUE(op1.covers(0));
}

}  // namespace
