// Tests: the executable lower-bound constructions.
//
//  - Section 4 / Theorem 1.2: build_oneshot_covering against both one-shot
//    algorithms must reach a configuration with many covered registers;
//    Case 2 can occur at most log2(n) times; all Lemma 2.1 branch tests and
//    Lemma 4.1 post-conditions must hold (they would fail on an incorrect
//    implementation).
//  - Section 3 / Theorem 1.1: build_longlived_covering against max-scan must
//    reach a (3, floor(n/2))-configuration covering >= floor(n/6) registers,
//    and find the Lemma 3.1 signature recurrence.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/longlived_builder.hpp"
#include "adversary/oneshot_builder.hpp"
#include "api/registry.hpp"
#include "util/math.hpp"

namespace {

using namespace stamped;
using namespace stamped::adversary;

/// The log-free simulated systems of `family` with n processes making
/// `calls` getTS calls each.
runtime::SystemFactory factory_of(const char* family, int n, int calls = 1) {
  return api::family(family).factory({.n = n, .calls_per_process = calls});
}

TEST(Lemma41, InitialApplicationPausesAllButOne) {
  const int n = 10;
  auto factory = factory_of("sqrt-oneshot", n);
  std::vector<int> all;
  for (int p = 0; p < n; ++p) all.push_back(p);
  auto out = apply_lemma41(factory, {}, {}, {}, {}, all, 200000);
  EXPECT_TRUE(out.branch_checks_ok);
  EXPECT_TRUE(out.postcondition_ok);
  // (d): together the halves hold |U| - 1 processes.
  EXPECT_EQ(out.sigma_participants.size() +
                out.sigma_prime_participants.size(),
            static_cast<std::size_t>(n - 1));
  // (e): sigma holds at least floor(|U|/2).
  EXPECT_GE(out.sigma_participants.size(), static_cast<std::size_t>(n / 2));
  // Participants are distinct.
  std::unordered_set<int> seen;
  for (int p : out.sigma_participants) EXPECT_TRUE(seen.insert(p).second);
  for (int p : out.sigma_prime_participants) EXPECT_TRUE(seen.insert(p).second);
}

TEST(Lemma41, WithRealBlockWritesOnSqrt) {
  // Reach a configuration with register 0 covered 9 times, then apply the
  // lemma with genuine non-empty block writes.
  const int n = 24;
  auto factory = factory_of("sqrt-oneshot", n);
  auto sys = factory();
  std::unordered_set<int> nothing;
  for (int p = 0; p < 9; ++p) {
    ASSERT_TRUE(
        runtime::run_solo_until_poised_outside(*sys, p, nothing, 200000));
  }
  runtime::Schedule base = sys->executed_schedule();
  std::vector<int> idle;
  for (int p = 9; p < n; ++p) idle.push_back(p);
  auto out = apply_lemma41(factory, base, {0, 1}, {2, 3}, {0}, idle, 200000);
  EXPECT_TRUE(out.branch_checks_ok);
  EXPECT_TRUE(out.postcondition_ok);
  EXPECT_EQ(out.sigma_participants.size() +
                out.sigma_prime_participants.size(),
            idle.size() - 1);
}

class OneShotBuilderSweep : public ::testing::TestWithParam<int> {};

TEST_P(OneShotBuilderSweep, SqrtAlgorithmReachesTheoremBound) {
  const int n = GetParam();
  auto result = build_oneshot_covering(factory_of("sqrt-oneshot", n), n);
  EXPECT_TRUE(result.all_checks_ok) << result.summary();
  EXPECT_LE(result.case2_count,
            static_cast<int>(std::ceil(std::log2(n))) + 1)
      << result.summary();
  // Theorem 1.2's conclusion: when the construction stops because
  // l - j <= 2, at least m - log n - 2 columns reached the diagonal.
  if (result.stop_reason == "l-j<=2") {
    const int floor_bound =
        result.m - static_cast<int>(std::ceil(std::log2(n))) - 2;
    EXPECT_GE(result.j_last, std::max(1, floor_bound)) << result.summary();
  }
  EXPECT_GE(result.registers_covered, result.j_last) << result.summary();
}

TEST_P(OneShotBuilderSweep, SimpleAlgorithmReachesTheoremBound) {
  const int n = GetParam();
  auto result = build_oneshot_covering(factory_of("simple-oneshot", n), n);
  EXPECT_TRUE(result.all_checks_ok) << result.summary();
  if (result.stop_reason == "l-j<=2") {
    const int floor_bound =
        result.m - static_cast<int>(std::ceil(std::log2(n))) - 2;
    EXPECT_GE(result.j_last, std::max(1, floor_bound)) << result.summary();
  }
  EXPECT_GE(result.registers_covered, result.j_last) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, OneShotBuilderSweep,
                         ::testing::Values(8, 18, 32, 50),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(OneShotBuilder, StepRecordsAreConsistent) {
  const int n = 32;
  auto result = build_oneshot_covering(factory_of("sqrt-oneshot", n), n);
  ASSERT_FALSE(result.steps.empty());
  int prev_j = 0;
  std::size_t prev_len = 0;
  for (const auto& step : result.steps) {
    EXPECT_GT(step.j_after, prev_j);       // j strictly grows
    EXPECT_GE(step.schedule_length, prev_len);
    EXPECT_GE(step.nu, 1);
    if (step.round > 0) {
      EXPECT_TRUE(step.case_kind == 1 || step.case_kind == 2);
      if (step.case_kind == 2) {
        EXPECT_EQ(step.nu, 1);
      }
    }
    prev_j = step.j_after;
    prev_len = step.schedule_length;
  }
  EXPECT_EQ(result.steps.back().j_after, result.j_last);
  // The final schedule replays to a configuration whose covered register
  // count matches the report.
  auto sys = runtime::replay(factory_of("sqrt-oneshot", n), result.schedule);
  EXPECT_EQ(static_cast<int>(std::count_if(
                result.final_ordered_sig.begin(),
                result.final_ordered_sig.end(), [](int s) { return s > 0; })),
            result.registers_covered);
}

TEST(LongLivedBuilder, MaxScanReachesThreeKConfiguration) {
  for (int n : {6, 12, 24, 48}) {
    const int target = n / 2;
    LongLivedBuilderOptions opts;
    opts.recurrence_rounds = 8;
    auto result = build_longlived_covering(
        factory_of("maxscan", n, opts.recurrence_rounds + 4), n, target, opts);
    EXPECT_EQ(result.k_reached, target) << result.summary();
    EXPECT_TRUE(result.is_3k) << result.summary();
    // Theorem 1.1's conclusion: at least floor(n/6) registers covered.
    EXPECT_GE(result.registers_covered, n / 6) << result.summary();
    // For SWMR max-scan every coverer has a distinct register.
    EXPECT_EQ(result.registers_covered, target) << result.summary();
  }
}

TEST(LongLivedBuilder, SignatureRecurrenceFound) {
  // Lemma 3.1: along repeated rounds the finite signature space forces a
  // repeat.
  const int n = 10;
  LongLivedBuilderOptions opts;
  opts.recurrence_rounds = 16;
  auto result = build_longlived_covering(factory_of("maxscan", n, 64), n,
                                         n / 2, opts);
  EXPECT_EQ(result.stop_reason, "signature-repeat") << result.summary();
  ASSERT_GE(result.repeat_second, 0);
  EXPECT_LT(result.repeat_first, result.repeat_second);
  EXPECT_EQ(result.signature_history[static_cast<std::size_t>(
                result.repeat_first)],
            result.signature_history[static_cast<std::size_t>(
                result.repeat_second)]);
}

}  // namespace
