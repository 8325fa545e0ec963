// Cross-module integration tests: whole-system scenarios combining the
// algorithms, the adversary machinery, the verification stack, and the
// diagnostics.
#include <gtest/gtest.h>

#include "adversary/covering.hpp"
#include "adversary/oneshot_builder.hpp"
#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "api/registry.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace_dump.hpp"
#include "util/grid.hpp"
#include "util/math.hpp"
#include "verify/hb_checker.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace stamped;
using Sqrt = api::EngineInstance<api::SqrtEngine>;

TEST(Integration, AdversarialPrefixThenFreeRunStaysCorrect) {
  // Drive the Section 4 adversary for its full construction, then release
  // every paused process under a random schedule; the combined execution
  // must still satisfy the timestamp property and the space bound.
  const int n = 32;
  auto result = adversary::build_oneshot_covering(
      api::family("sqrt-oneshot").factory({.n = n}), n);
  ASSERT_TRUE(result.all_checks_ok) << result.summary();

  // Rebuild with a live history, replay the adversarial schedule, then run
  // free.
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  runtime::run_script(sys, result.schedule);
  util::Rng rng(17);
  runtime::run_random(sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);

  const auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(sys.registers_written(), core::sqrt_oneshot_registers(n) - 1);
  auto analysis = verify::analyze_phases(sys, inst.engine().stats(), n);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

TEST(Integration, GrowingVariantManyCallsPerProcess) {
  // Section 7 extension at scale: 8 processes x 16 calls = 128 calls, the
  // register pool grows well past the one-shot allocation but usage stays
  // within ceil(2*sqrt(M)).
  const int n = 8;
  const int calls = 16;
  api::EngineInstance<api::GrowingEngine<>> inst(
      {.n = n, .calls_per_process = calls}, api::Backend::kSim);
  auto& sys = inst.sim();
  util::Rng rng(5);
  runtime::run_random(sys, rng, std::uint64_t{1} << 28);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  const auto records = inst.records();
  ASSERT_EQ(static_cast<int>(records.size()), n * calls);
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(sys.registers_written(),
            static_cast<int>(core::sqrt_oneshot_registers(n * calls)));
  auto analysis =
      verify::analyze_phases(sys, inst.engine().stats(), n * calls);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

TEST(Integration, TraceDumpRendersExecutions) {
  Sqrt inst({.n = 4}, api::Backend::kSim);
  auto& sys = inst.sim();
  runtime::run_solo_until_calls_complete(sys, 0, 1, 100000);
  const std::string trace = runtime::dump_trace(sys);
  EXPECT_NE(trace.find("p0 read R[0]"), std::string::npos);
  EXPECT_NE(trace.find(":= <[p0.0],1>"), std::string::npos);
  const std::string regs = runtime::dump_registers(sys);
  EXPECT_NE(regs.find("R[0] = <[p0.0],1>"), std::string::npos);
  const std::string procs = runtime::dump_processes(sys);
  EXPECT_NE(procs.find("p0: steps="), std::string::npos);
  EXPECT_NE(procs.find("finished"), std::string::npos);
  EXPECT_NE(procs.find("pending=read@R[0]"), std::string::npos);
}

TEST(Integration, TraceDumpTruncatesLongTraces) {
  Sqrt inst({.n = 8}, api::Backend::kSim);
  auto& sys = inst.sim();
  util::Rng rng(2);
  runtime::run_random(sys, rng, std::uint64_t{1} << 22);
  const std::string trace = runtime::dump_trace(sys, 10);
  EXPECT_NE(trace.find("earlier steps"), std::string::npos);
}

TEST(Integration, CoveringDumpShowsPoisedWriters) {
  Sqrt inst({.n = 6}, api::Backend::kSim);
  auto& sys = inst.sim();
  std::unordered_set<int> nothing;
  ASSERT_TRUE(runtime::run_solo_until_poised_outside(sys, 0, nothing,
                                                     100000));
  ASSERT_TRUE(runtime::run_solo_until_poised_outside(sys, 1, nothing,
                                                     100000));
  const std::string regs = runtime::dump_registers(sys);
  EXPECT_NE(regs.find("covered by {p0 p1}"), std::string::npos);
}

TEST(Integration, GridRendersBuilderSignature) {
  const int n = 24;
  auto result = adversary::build_oneshot_covering(
      api::family("simple-oneshot").factory({.n = n}), n);
  const std::string grid = util::render_covering_grid(
      result.final_ordered_sig, result.l_last, result.j_last - 1);
  EXPECT_NE(grid.find('#'), std::string::npos);
  EXPECT_NE(grid.find("columns = registers"), std::string::npos);
}

TEST(Integration, SequentialThenConcurrentMixedPhases) {
  // Half the processes run sequentially (driving phases deep), then the
  // other half storms in concurrently; bounds and correctness must hold.
  const int n = 24;
  Sqrt inst({.n = n}, api::Backend::kSim);
  auto& sys = inst.sim();
  verify::SqrtInvariantChecker checker;
  checker.attach(sys);
  for (int p = 0; p < n / 2; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 100000));
  }
  util::Rng rng(9);
  runtime::run_random(sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys.all_finished());
  auto report =
      verify::check_timestamp_property(inst.records(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto analysis = verify::analyze_phases(sys, inst.engine().stats(), n);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
  // The sequential prefix drove at least sqrt(n)-ish phases.
  EXPECT_GE(analysis.phases_started, util::isqrt(n) - 1);
}

}  // namespace
