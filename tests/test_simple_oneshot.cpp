// Tests: the Section 5 simple one-shot algorithm (ceil(n/2) registers).
#include <gtest/gtest.h>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "core/simple_oneshot.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace stamped;
using Simple = api::EngineInstance<api::SimpleEngine>;

TEST(SimpleOneShot, RegisterCountIsCeilHalfN) {
  EXPECT_EQ(core::simple_oneshot_registers(1), 1);
  EXPECT_EQ(core::simple_oneshot_registers(2), 1);
  EXPECT_EQ(core::simple_oneshot_registers(5), 3);
  EXPECT_EQ(core::simple_oneshot_registers(8), 4);
  Simple inst({.n = 9}, api::Backend::kSim);
  EXPECT_EQ(inst.system().num_registers(), 5);
}

TEST(SimpleOneShot, PartnersShareARegister) {
  EXPECT_EQ(core::simple_own_register(0), 0);
  EXPECT_EQ(core::simple_own_register(1), 0);
  EXPECT_EQ(core::simple_own_register(2), 1);
  EXPECT_EQ(core::simple_own_register(7), 3);
}

TEST(SimpleOneShot, EveryCallTakesExactlyMPlusTwoSteps) {
  const int n = 6;
  Simple inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.system();
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 1000));
    EXPECT_EQ(sys.steps_taken_by(p),
              static_cast<std::uint64_t>(core::simple_oneshot_registers(n)) + 2)
        << "p=" << p;
  }
}

TEST(SimpleOneShot, SequentialTimestampsStrictlyIncrease) {
  for (int n : {1, 2, 3, 7, 16}) {
    Simple inst({.n = n}, api::Backend::kSim);
    for (int p = 0; p < n; ++p) {
      ASSERT_TRUE(
          runtime::run_solo_until_calls_complete(inst.system(), p, 1, 1000));
    }
    auto records = inst.records();
    ASSERT_EQ(static_cast<int>(records.size()), n);
    for (int i = 1; i < n; ++i) {
      EXPECT_LT(records[static_cast<std::size_t>(i - 1)].ts,
                records[static_cast<std::size_t>(i)].ts)
          << "n=" << n;
    }
    // Sequential execution: the i-th caller reads all previous increments,
    // so timestamps are exactly 1..n.
    EXPECT_EQ(records.back().ts, n);
  }
}

TEST(SimpleOneShot, RegisterValuesStayInZeroOneTwo) {
  const int n = 10;
  Simple inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  bool ok = true;
  sys.set_observer([&](const runtime::System<std::int64_t>& s,
                       const runtime::TraceEntry<std::int64_t>&) {
    for (int r = 0; r < s.num_registers(); ++r) {
      ok = ok && s.reg_value(r) >= 0 && s.reg_value(r) <= 2;
    }
  });
  util::Rng rng(3);
  runtime::run_random(sys, rng, 1 << 20);
  EXPECT_TRUE(sys.all_finished());
  EXPECT_TRUE(ok);
}

TEST(SimpleOneShot, TimestampRangeIsBounded) {
  // Every timestamp is a sum of ceil(n/2) registers each in {0,1,2} and
  // includes the caller's own increment, so 1 <= ts <= 2*ceil(n/2).
  const int n = 9;
  Simple inst({.n = n}, api::Backend::kSim);
  util::Rng rng(4);
  runtime::run_random(inst.system(), rng, 1 << 20);
  ASSERT_TRUE(inst.system().all_finished());
  for (const auto& r : inst.records()) {
    EXPECT_GE(r.ts, 1);
    EXPECT_LE(r.ts, 2 * core::simple_oneshot_registers(n));
  }
}

// NOTE: the (n, seed) property sweep that used to live here is now part of
// the registry-wide conformance suite (test_api_conformance.cpp), which runs
// the same check for every family under every schedule source.

TEST(SimpleOneShot, OnlyAllocatedRegistersAreTouched) {
  for (int n : {2, 5, 12, 33}) {
    Simple inst({.n = n}, api::Backend::kSim);
    auto& sys = inst.system();
    util::Rng rng(static_cast<std::uint64_t>(n));
    runtime::run_random(sys, rng, 1 << 22);
    ASSERT_TRUE(sys.all_finished());
    EXPECT_EQ(sys.registers_written(), core::simple_oneshot_registers(n));
  }
}

}  // namespace
