// Negative tests: the Algorithm 4 invariant checker and phase analysis must
// DETECT violations, not just pass on correct runs.
#include <gtest/gtest.h>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace stamped;
using core::TsRecord;
using Sys = runtime::System<TsRecord>;
using Sqrt = api::EngineInstance<api::SqrtEngine>;

// Free-function coroutines for deliberately ill-behaved programs (parameters
// live in the coroutine frame).
runtime::ProcessTask write_arbitrary_program(Sys::Ctx& ctx, int reg,
                                             TsRecord rec) {
  co_await ctx.write(reg, std::move(rec));
}

std::unique_ptr<Sys> one_writer_system(int registers, int reg, TsRecord rec) {
  std::vector<Sys::Program> programs;
  programs.push_back([reg, rec](Sys::Ctx& ctx) {
    return write_arbitrary_program(ctx, reg, rec);
  });
  return std::make_unique<Sys>(registers, TsRecord::bottom(),
                               std::move(programs));
}

TEST(InvariantChecker, DetectsNonBottomBeyondFrontier) {
  // Writing register 2 while 0 and 1 are still ⊥ breaks the prefix property.
  auto sys = one_writer_system(4, 2, TsRecord::make({{0, 0}}, 1));
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  EXPECT_THROW(sys->step(0), stamped::invariant_error);
}

TEST(InvariantChecker, DetectsBadSequenceLength) {
  // A record of length 2 in register 0 (paper register 1 must hold length 1).
  auto sys = one_writer_system(4, 0, TsRecord::make({{0, 0}, {1, 0}}, 1));
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  EXPECT_THROW(sys->step(0), stamped::invariant_error);
}

TEST(InvariantChecker, DetectsSentinelWrite) {
  auto sys = one_writer_system(2, 1, TsRecord::make({{0, 0}}, 1));
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  EXPECT_THROW(sys->step(0), stamped::invariant_error);
}

runtime::ProcessTask duplicate_writer_program(Sys::Ctx& ctx) {
  TsRecord first = TsRecord::make({{0, 0}}, 1);
  TsRecord second = TsRecord::make({{0, 0}}, 1);
  co_await ctx.write(0, std::move(first));
  co_await ctx.write(0, std::move(second));
}

TEST(InvariantChecker, DetectsRepeatedLastId) {
  // Claim 6.1(b): two writes with the same last(seq) to one register.
  std::vector<Sys::Program> programs;
  programs.push_back(
      [](Sys::Ctx& ctx) { return duplicate_writer_program(ctx); });
  Sys sys(3, TsRecord::bottom(), std::move(programs));
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  sys.step(0);  // first write fine
  EXPECT_THROW(sys.step(0), stamped::invariant_error);
}

TEST(InvariantChecker, CleanRunPasses) {
  Sqrt inst({.n = 10}, api::Backend::kSim);
  auto& sys = inst.sim();
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  util::Rng rng(4);
  runtime::run_random(sys, rng, 1 << 22);
  EXPECT_TRUE(sys.all_finished());
  EXPECT_GT(checker.steps_checked(), 0u);
}

TEST(PhaseAnalysis, EmptyExecution) {
  Sqrt inst({.n = 4}, api::Backend::kSim);
  // No steps at all: no phases, no writes, bounds trivially hold.
  auto analysis = verify::analyze_phases(inst.sim(), inst.engine().stats(), 4);
  EXPECT_EQ(analysis.phases_started, 0);
  EXPECT_EQ(analysis.invalidation_writes, 0);
  EXPECT_TRUE(analysis.bounds_ok());
}

TEST(PhaseAnalysis, SequentialRunCountsExactInvalidations) {
  // Sequential execution of n calls: phase k is started by one call and
  // completed once phase k+1 starts; Claim 6.10 says a completed phase k has
  // exactly k invalidation writes. With n = 10 the phases are 1,2,3 complete
  // and 4 ongoing: 1+2+3 invalidations in completed phases, plus the ongoing
  // phase's first writes.
  const int n = 10;
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  auto analysis = verify::analyze_phases(sys, inst.engine().stats(), n);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
  EXPECT_EQ(analysis.phases_started, 4);
  // Sequential: every call writes exactly once, and every write is the first
  // write to its register in its phase (an invalidation write).
  EXPECT_EQ(analysis.invalidation_writes, n);
  EXPECT_EQ(analysis.total_writes, n);
}

}  // namespace
