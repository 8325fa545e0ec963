// Tests: the long-lived max-scan comparator (n SWMR registers).
#include <gtest/gtest.h>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "runtime/scheduler.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using Maxscan = api::EngineInstance<api::MaxscanEngine>;

TEST(MaxScan, UsesExactlyNRegisters) {
  const int n = 7;
  Maxscan inst({.n = n, .calls_per_process = 2}, api::Backend::kSim);
  auto& sys = inst.sim();
  EXPECT_EQ(sys.num_registers(), n);
  util::Rng rng(1);
  runtime::run_random(sys, rng, 1 << 22);
  ASSERT_TRUE(sys.all_finished());
  EXPECT_EQ(sys.registers_written(), n);
}

TEST(MaxScan, EveryCallTakesNPlusOneSteps) {
  const int n = 5;
  Maxscan inst({.n = n, .calls_per_process = 3}, api::Backend::kSim);
  auto& sys = inst.sim();
  ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, 2, 3, 1000));
  EXPECT_EQ(sys.steps_taken_by(2), static_cast<std::uint64_t>(3 * (n + 1)));
}

TEST(MaxScan, SequentialTimestampsAreOneToM) {
  const int n = 4;
  Maxscan inst({.n = n, .calls_per_process = 2}, api::Backend::kSim);
  auto& sys = inst.sim();
  for (int round = 0; round < 2; ++round) {
    for (int p = 0; p < n; ++p) {
      ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 1000));
    }
  }
  auto records = inst.records();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ts, static_cast<std::int64_t>(i + 1));
  }
}

// NOTE: the (n, calls, seed) property sweep that used to live here is now
// part of the registry-wide conformance suite (test_api_conformance.cpp),
// which runs the same check for every family under every schedule source.

TEST(MaxScan, ConcurrentCallsMayShareTimestamps) {
  // Two processes that both collect before either writes will compute the
  // same max — permitted by the weak timestamp specification. This pins down
  // that the checker treats equal timestamps on concurrent calls as legal.
  const int n = 2;
  Maxscan inst({.n = n, .calls_per_process = 1}, api::Backend::kSim);
  auto& sys = inst.sim();
  // Interleave: both collect everything, then both write.
  runtime::run_script(sys, std::vector<int>{0, 0, 1, 1, 0, 1});
  ASSERT_TRUE(sys.all_finished());
  auto records = inst.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].ts, records[1].ts);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
