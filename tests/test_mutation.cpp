// Mutation test: the paper's Section 6.1 discussion, executed.
//
// "A more serious potential problem due to concurrency occurs when [scan and
// write are not atomic]. ... getTS(b) beginning after getTS(a) completes
// would invalidate R[1] and return timestamp (k, 1), which is incorrect
// because it is less than getTS(a)'s timestamp. This problem is eliminated
// by ensuring that when getTS(a) determines that a register R[i] is invalid,
// it will remain invalid for the duration of the phase [the line 10-11
// overwrite when rnd < myrnd]."
//
// We run the paper's exact interleaving against
//   (a) the kNeverOverwrite mutant — the violation must appear;
//   (b) the real algorithm — the same orchestration must stay correct.
// Notably, 24,000 random-schedule runs of the mutant found no violation
// (measured during development): this interleaving is genuinely surgical,
// which is why the invariant matters.
//
// Cast (n = 8, phase numbers are the paper's 1-based rounds):
//   P0  starts phase 1: writes R1 = <(P0), 1>, returns (1,0)
//   P1  starts phase 2: writes R2 = <(P0,P1), 2>, returns (2,0)
//   P2  "old writer" C: myrnd=2, sees R1 valid, STALLS poised to write
//       R1 = <(C), 2> (the stale line-8 write)
//   P3  D: invalidates R1 = <(D), 2>, returns (2,1)
//   P4  p: slow phase-3 starter; scans BEFORE C's stale write lands
//   P5  q: second phase-3 starter; scans AFTER C's stale write lands
//   P6  a: must return (3,2) — R1 looks invalid to it (mutant: not re-asserted)
//   P7  b: after q's R3 write re-validates R1, returns (3,1) < (3,2) although
//       a completed before b began. VIOLATION (mutant only).
#include <gtest/gtest.h>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using core::PairTimestamp;
using core::SqrtVariant;

struct ScenarioResult {
  std::vector<runtime::CallRecord<PairTimestamp>> records;
  bool orchestration_ok = true;
};

// Runs a process solo until its (first) pending write targets register
// `reg` (0-based). The write is not executed.
bool pause_before_write_to(runtime::ISystem& sys, int pid, int reg) {
  std::unordered_set<int> covered;
  for (int r = 0; r < sys.num_registers(); ++r) {
    if (r != reg) covered.insert(r);
  }
  return runtime::run_solo_until_poised_outside(sys, pid, covered, 100000);
}

// Runs the cast on Algorithm 4 `Variant` over the growing engine's pool,
// which has room for every phase even the mutant can start.
template <SqrtVariant Variant>
ScenarioResult run_scenario() {
  ScenarioResult out;
  api::EngineInstance<api::GrowingEngine<Variant>> inst({.n = 8},
                                                        api::Backend::kSim);
  runtime::ISystem& sys = inst.system();
  auto complete = [&](int pid) {
    // A preceding step() may have resumed the process through to completion
    // (one-shot programs finish right after their last write).
    if (sys.finished(pid)) return;
    out.orchestration_ok &=
        runtime::run_solo_until_calls_complete(sys, pid, 1, 100000);
  };

  complete(0);                                     // phase 1: R1 written
  complete(1);                                     // phase 2: R2 written
  out.orchestration_ok &= pause_before_write_to(sys, 2, 0);  // C stalls at R1
  complete(3);                                     // D invalidates R1, (2,1)
  out.orchestration_ok &= pause_before_write_to(sys, 4, 2);  // p scanned, at R3
  sys.step(2);                                     // C's stale write lands
  complete(2);                                     // C returns (2,1)
  out.orchestration_ok &= pause_before_write_to(sys, 5, 2);  // q scanned, at R3
  sys.step(4);                                     // p writes R3
  complete(4);                                     // p returns (3,0)
  complete(6);                                     // a — the key witness
  sys.step(5);                                     // q's late R3 write
  complete(5);                                     // q returns (3,0)
  complete(7);                                     // b — the second witness
  runtime::check_no_failures(sys);
  out.records = inst.records();
  return out;
}

PairTimestamp ts_of(const ScenarioResult& r, int pid) {
  for (const auto& rec : r.records) {
    if (rec.pid == pid) return rec.ts;
  }
  ADD_FAILURE() << "no record for pid " << pid;
  return {};
}

TEST(Mutation, NeverOverwriteMutantViolatesExactlyAsThePaperPredicts) {
  auto result = run_scenario<SqrtVariant::kNeverOverwrite>();
  ASSERT_TRUE(result.orchestration_ok);
  ASSERT_EQ(result.records.size(), 8u);

  // The witnesses receive the paper's predicted timestamps.
  EXPECT_EQ(ts_of(result, 6), (PairTimestamp{3, 2}));  // a
  EXPECT_EQ(ts_of(result, 7), (PairTimestamp{3, 1}));  // b — too small!

  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_FALSE(report.ok())
      << "the mutant should violate the timestamp property";
  // The sort-and-sweep checker reports the identical violation list.
  const auto sweep =
      verify::check_timestamp_property_sweep(result.records, core::Compare{});
  EXPECT_EQ(sweep.violations, report.violations);
  EXPECT_TRUE(sweep == report) << sweep.to_string();
}

TEST(Mutation, PaperAlgorithmSurvivesTheSameInterleaving) {
  auto result = run_scenario<SqrtVariant::kPaper>();
  ASSERT_TRUE(result.orchestration_ok);
  ASSERT_EQ(result.records.size(), 8u);

  // With the line 10-11 re-assertion, a still gets (3,2) but b is pushed to
  // the next round.
  EXPECT_EQ(ts_of(result, 6), (PairTimestamp{3, 2}));  // a
  EXPECT_EQ(ts_of(result, 7), (PairTimestamp{4, 0}));  // b

  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto sweep =
      verify::check_timestamp_property_sweep(result.records, core::Compare{});
  EXPECT_TRUE(sweep == report) << sweep.to_string();
}

TEST(Mutation, AlwaysOverwriteSurvivesTheSameInterleaving) {
  auto result = run_scenario<SqrtVariant::kAlwaysOverwrite>();
  ASSERT_TRUE(result.orchestration_ok);
  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto sweep =
      verify::check_timestamp_property_sweep(result.records, core::Compare{});
  EXPECT_TRUE(sweep == report) << sweep.to_string();
}

}  // namespace
