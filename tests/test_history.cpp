// Unit tests: call records, the happens-before relation, and the timestamp
// property checker (including that it *detects* violations).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/timestamp.hpp"
#include "runtime/history.hpp"
#include "util/assert.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using runtime::CallRecord;

CallRecord<std::int64_t> rec(int pid, int call, std::int64_t ts,
                             std::uint64_t inv, std::uint64_t resp) {
  return {pid, call, ts, inv, resp};
}

TEST(History, HappensBeforeIsResponseBeforeInvocation) {
  auto a = rec(0, 0, 1, 1, 5);
  auto b = rec(1, 0, 2, 6, 9);
  auto c = rec(2, 0, 3, 4, 8);  // overlaps a
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
  EXPECT_FALSE(a.happens_before(c));
  EXPECT_FALSE(c.happens_before(a));
}

TEST(HbChecker, AcceptsCorrectHistory) {
  std::vector<CallRecord<std::int64_t>> records{
      rec(0, 0, 1, 1, 2), rec(1, 0, 2, 3, 4), rec(2, 0, 3, 5, 6),
      rec(3, 0, 3, 5, 7),  // concurrent with the previous, equal ts is fine
  };
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.ordered_pairs_checked, 0u);
  EXPECT_GT(report.concurrent_pairs, 0u);
}

TEST(HbChecker, DetectsOrderViolation) {
  // b happens after a but got a smaller timestamp.
  std::vector<CallRecord<std::int64_t>> records{rec(0, 0, 5, 1, 2),
                                                rec(1, 0, 4, 3, 4)};
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 2u);  // !compare(t1,t2) and compare(t2,t1)
}

TEST(HbChecker, DetectsEqualTimestampsOnOrderedPair) {
  std::vector<CallRecord<std::int64_t>> records{rec(0, 0, 5, 1, 2),
                                                rec(1, 0, 5, 3, 4)};
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_FALSE(report.ok());
}

TEST(HbChecker, PairTimestampLexicographic) {
  using core::PairTimestamp;
  std::vector<CallRecord<PairTimestamp>> records{
      {0, 0, PairTimestamp{1, 0}, 1, 2},
      {1, 0, PairTimestamp{1, 1}, 3, 4},
      {2, 0, PairTimestamp{2, 0}, 5, 6},
  };
  auto report = verify::check_timestamp_property(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(HbChecker, PerProcessMonotonicity) {
  std::vector<CallRecord<std::int64_t>> good{rec(0, 0, 1, 1, 2),
                                             rec(0, 1, 2, 3, 4)};
  EXPECT_TRUE(
      verify::check_per_process_monotonicity(good, core::Compare{}).ok());
  std::vector<CallRecord<std::int64_t>> bad{rec(0, 0, 2, 1, 2),
                                            rec(0, 1, 1, 3, 4)};
  EXPECT_FALSE(
      verify::check_per_process_monotonicity(bad, core::Compare{}).ok());
}

TEST(HbChecker, MonotonicityCollectsAllViolationsWithValues) {
  // Process 0 decreases twice (3 -> 2 -> 1): three violating index pairs
  // (0,1), (0,2), (1,2). Process 1 is fine and contributes none.
  std::vector<CallRecord<std::int64_t>> records{
      rec(0, 0, 3, 1, 2), rec(0, 1, 2, 3, 4), rec(0, 2, 1, 5, 6),
      rec(1, 0, 1, 1, 2), rec(1, 1, 2, 3, 4),
  };
  auto report =
      verify::check_per_process_monotonicity(records, core::Compare{});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 3u);
  // Every message names both offending timestamps.
  EXPECT_NE(report.violations[0].find("!compare(3, 2)"), std::string::npos)
      << report.violations[0];
  EXPECT_NE(report.violations[2].find("!compare(2, 1)"), std::string::npos)
      << report.violations[2];
}

TEST(HbChecker, PropertyViolationMessagesIncludeTimestamps) {
  std::vector<CallRecord<std::int64_t>> records{rec(0, 0, 5, 1, 2),
                                                rec(1, 0, 4, 3, 4)};
  auto report = verify::check_timestamp_property(records, core::Compare{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find(")=5"), std::string::npos)
      << report.violations[0];
  EXPECT_NE(report.violations[0].find(")=4"), std::string::npos)
      << report.violations[0];
}

TEST(HbChecker, FilteredPairsCarryNoObligation) {
  // Same decreasing pair as DetectsOrderViolation, but the filter releases
  // every ordered pair — the report stays clean and counts the release.
  std::vector<CallRecord<std::int64_t>> records{rec(0, 0, 5, 1, 2),
                                                rec(1, 0, 4, 3, 4)};
  auto release_all = [](const CallRecord<std::int64_t>&,
                        const CallRecord<std::int64_t>&) { return false; };
  auto report = verify::check_timestamp_property_filtered(
      records, core::Compare{}, release_all);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.ordered_pairs_checked, 0u);
  EXPECT_EQ(report.filtered_pairs, 1u);
}

/// Both sweep checkers must return exactly the quadratic checkers' reports:
/// the same violations in the same order and the same pair counts.
template <class Cmp>
void expect_sweep_matches_quadratic(
    const std::vector<CallRecord<std::int64_t>>& records, Cmp cmp) {
  const auto quad = verify::check_timestamp_property(records, cmp);
  const auto sweep = verify::check_timestamp_property_sweep(records, cmp);
  EXPECT_TRUE(sweep == quad) << "sweep: " << sweep.to_string()
                             << "\nquadratic: " << quad.to_string();
  const auto mono_quad = verify::check_per_process_monotonicity(records, cmp);
  const auto mono_sweep =
      verify::check_per_process_monotonicity_sweep(records, cmp);
  EXPECT_TRUE(mono_sweep == mono_quad)
      << "sweep: " << mono_sweep.to_string()
      << "\nquadratic: " << mono_quad.to_string();
}

TEST(HbSweep, EqualTimestampsOnConcurrentCallsPass) {
  // Three concurrent calls share timestamp 3, between an earlier and a later
  // call: 7 ordered pairs, 3 concurrent ones.
  std::vector<CallRecord<std::int64_t>> records{
      rec(0, 0, 1, 1, 2), rec(1, 0, 3, 3, 6), rec(2, 0, 3, 4, 7),
      rec(3, 0, 3, 5, 8), rec(0, 1, 4, 9, 10),
  };
  const auto report =
      verify::check_timestamp_property_sweep(records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.ordered_pairs_checked, 7u);
  EXPECT_EQ(report.concurrent_pairs, 3u);
  EXPECT_EQ(report.filtered_pairs, 0u);
  expect_sweep_matches_quadratic(records, core::Compare{});
}

TEST(HbSweep, EqualTimestampOnOrderedPairFails) {
  // p1's call responds before p2's is invoked, yet both return 5.
  std::vector<CallRecord<std::int64_t>> records{
      rec(0, 0, 2, 1, 2), rec(1, 0, 5, 3, 4), rec(2, 0, 5, 5, 6),
      rec(3, 0, 1, 1, 7),
  };
  const auto report =
      verify::check_timestamp_property_sweep(records, core::Compare{});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("!compare(t1,t2)"), std::string::npos)
      << report.violations[0];
  expect_sweep_matches_quadratic(records, core::Compare{});
}

TEST(HbSweep, RestartedProcessMatchesQuadratic) {
  // p0 completes calls 0 and 1, crashes inside call 2 (never recorded) and
  // restarts: its call_index begins again at 0, but the event stamps order
  // the new calls after the old ones.
  std::vector<CallRecord<std::int64_t>> records{
      rec(0, 0, 1, 1, 2), rec(0, 1, 3, 3, 4), rec(1, 0, 2, 2, 5),
      rec(0, 0, 6, 8, 9), rec(1, 1, 5, 6, 7), rec(0, 1, 7, 10, 11),
  };
  const auto mono =
      verify::check_per_process_monotonicity_sweep(records, core::Compare{});
  EXPECT_TRUE(mono.ok()) << mono.to_string();
  EXPECT_EQ(mono.ordered_pairs_checked, 6u + 1u);  // 4 calls of p0, 2 of p1
  expect_sweep_matches_quadratic(records, core::Compare{});

  // The restarted incarnation's first call returns less than a pre-crash
  // call: both checkers flag it.
  records[3].ts = 2;
  EXPECT_FALSE(
      verify::check_per_process_monotonicity_sweep(records, core::Compare{})
          .ok());
  EXPECT_FALSE(
      verify::check_timestamp_property_sweep(records, core::Compare{}).ok());
  expect_sweep_matches_quadratic(records, core::Compare{});
}

TEST(HbSweep, InconsistentComparatorGetsTheQuadraticReport) {
  // `a != b` is deterministic but claims both directions for distinct
  // timestamps, and `a <= b` is reflexive: neither is a strict order. The
  // sweeps' guards hand such histories to the quadratic checkers, so the
  // reports stay exact (and the merge sort stays in range). The second
  // history has only concurrent calls, so no ordered pair flags it: only
  // the sort guard sees that `a != b` is no order.
  const std::vector<std::vector<CallRecord<std::int64_t>>> histories{
      {rec(0, 0, 4, 1, 2), rec(1, 0, 4, 1, 3), rec(0, 1, 2, 3, 5),
       rec(2, 0, 9, 2, 6), rec(1, 1, 7, 4, 8), rec(0, 2, 4, 6, 9),
       rec(2, 1, 1, 7, 10), rec(3, 0, 4, 8, 11)},
      {rec(0, 0, 3, 1, 10), rec(1, 0, 1, 2, 11), rec(2, 0, 4, 3, 12),
       rec(3, 0, 2, 4, 13)},
  };
  for (const auto& records : histories) {
    expect_sweep_matches_quadratic(
        records, [](std::int64_t a, std::int64_t b) { return a != b; });
    expect_sweep_matches_quadratic(
        records, [](std::int64_t a, std::int64_t b) { return a <= b; });
    expect_sweep_matches_quadratic(records, core::Compare{});
  }
}

TEST(HbSweep, CleanHistoryNeedsFarFewerComparisonsThanPairs) {
  // 4 processes take turns, 64 calls each, with increasing timestamps. The
  // quadratic checkers compare every ordered pair at least once; the sweeps
  // sort once, so a clean history must not fall back to them.
  std::vector<CallRecord<std::int64_t>> records;
  for (int k = 0; k < 256; ++k) {
    const auto t = static_cast<std::uint64_t>(2 * k);
    records.push_back(rec(k % 4, k / 4, k, t + 1, t + 2));
  }
  std::size_t comparisons = 0;
  const auto counting = [&comparisons](std::int64_t a, std::int64_t b) {
    ++comparisons;
    return a < b;
  };
  const auto report = verify::check_timestamp_property_sweep(records, counting);
  const auto mono =
      verify::check_per_process_monotonicity_sweep(records, counting);
  EXPECT_TRUE(report.ok() && mono.ok());
  EXPECT_EQ(report.ordered_pairs_checked, 256u * 255u / 2u);
  EXPECT_EQ(mono.ordered_pairs_checked, 4u * (64u * 63u / 2u));
  EXPECT_LT(comparisons, records.size() * records.size() / 8u);
  expect_sweep_matches_quadratic(records, core::Compare{});
}

TEST(Schedule, ToStringAndParseRoundTrip) {
  const std::vector<int> sched{0, 3, 1, 1, 2};
  const std::string text = runtime::schedule_to_string(sched);
  EXPECT_EQ(runtime::parse_schedule(text), sched);
}

TEST(Schedule, ToStringTruncatesLongSchedules) {
  std::vector<int> sched(100, 1);
  const std::string text = runtime::schedule_to_string(sched, 10);
  EXPECT_NE(text.find("+90"), std::string::npos);
}

TEST(Schedule, ParseRejectsGarbage) {
  EXPECT_THROW(runtime::parse_schedule("1 2 x"), stamped::invariant_error);
  EXPECT_THROW(runtime::parse_schedule("-4"), stamped::invariant_error);
}

TEST(Timestamp, ReprFormats) {
  EXPECT_EQ((core::TsId{3, 2}).repr(), "p3.2");
  EXPECT_EQ((core::PairTimestamp{4, 1}).repr(), "(4,1)");
  EXPECT_EQ(core::TsRecord::bottom().repr(), "⊥");
  auto rec2 = core::TsRecord::make({{1, 0}, {2, 0}}, 2);
  EXPECT_EQ(rec2.repr(), "<[p1.0 p2.0],2>");
  EXPECT_EQ(rec2.last(), (core::TsId{2, 0}));
}

// <[p0.0 p1.1 p2.2 p3.0 ...], rnd> with `length` ids, or ⊥ for length 0.
core::TsRecord record_of_length(int length, std::int64_t rnd) {
  if (length == 0) return core::TsRecord::bottom();
  std::vector<core::TsId> ids;
  for (int i = 0; i < length; ++i) ids.push_back({i, i % 3});
  return core::TsRecord::make(ids, rnd);
}

TEST(Timestamp, RecordValueSemanticsAcrossInlineAndHeapShapes) {
  // A one-id sequence lives inline and a longer one owns a heap array, so
  // every copy, move and assignment between the two shapes must hand the
  // array over exactly once (ASan and LSan check the ownership).
  const std::vector<int> lengths{0, 1, 2, 64};
  for (int a : lengths) {
    SCOPED_TRACE("length " + std::to_string(a));
    const core::TsRecord ra = record_of_length(a, 1 + a);
    ASSERT_EQ(ra.seq.size(), static_cast<std::size_t>(a));
    if (a > 0) {
      EXPECT_EQ(ra.last(), (core::TsId{a - 1, (a - 1) % 3}));
      EXPECT_EQ(ra.seq.back(), ra.last());
    }
    int i = 0;
    for (const core::TsId& id : ra.seq) {
      EXPECT_EQ(id, ra.seq[static_cast<std::size_t>(i)]);
      EXPECT_EQ(id, (core::TsId{i, i % 3}));
      ++i;
    }
    EXPECT_EQ(i, a);

    core::TsRecord copy = ra;
    EXPECT_EQ(copy, ra);
    core::TsRecord moved = std::move(copy);
    EXPECT_EQ(moved, ra);
    // The moved-from record stays valid: empty, and usable again.
    EXPECT_TRUE(copy.seq.empty());
    copy = ra;
    EXPECT_EQ(copy, ra);

    for (int b : lengths) {
      SCOPED_TRACE("assigned length " + std::to_string(b));
      const core::TsRecord rb = record_of_length(b, 100 + b);
      core::TsRecord copied_into = ra;
      copied_into = rb;
      EXPECT_EQ(copied_into, rb);
      EXPECT_EQ(rb, record_of_length(b, 100 + b));  // the source is intact

      core::TsRecord moved_into = ra;
      core::TsRecord source = rb;
      moved_into = std::move(source);
      EXPECT_EQ(moved_into, rb);
      EXPECT_TRUE(source.seq.empty());
      source = ra;
      EXPECT_EQ(source, ra);
    }

    // Self-assignment, through an alias so the compiler does not flag it.
    core::TsRecord self = ra;
    core::TsRecord& alias = self;
    self = alias;
    EXPECT_EQ(self, ra);
    self = std::move(alias);
    EXPECT_EQ(self, ra);
  }

  // Equality compares every id, the length and rnd.
  const core::TsRecord two = record_of_length(2, 2);
  EXPECT_EQ(two, core::TsRecord::make({{0, 0}, {1, 1}}, 2));
  EXPECT_NE(two, core::TsRecord::make({{0, 0}, {1, 2}}, 2));
  EXPECT_NE(two, core::TsRecord::make({{0, 0}, {1, 1}}, 3));
  EXPECT_NE(two, core::TsRecord::make({{0, 0}}, 2));
  EXPECT_NE(two, record_of_length(3, 2));
  EXPECT_NE(two, core::TsRecord::bottom());
  EXPECT_EQ(core::TsRecord::make_one({7, 1}, 4),
            core::TsRecord::make({{7, 1}}, 4));
  EXPECT_EQ(core::IdSeq(), core::IdSeq());
  EXPECT_NE(core::IdSeq(core::TsId{0, 0}), core::IdSeq());

  // The printed form does not depend on the shape.
  EXPECT_EQ(record_of_length(1, 1).repr(), "<[p0.0],1>");
  EXPECT_EQ(core::TsRecord::make_one({7, 1}, 4).repr(), "<[p7.1],4>");
  EXPECT_EQ(two.repr(), "<[p0.0 p1.1],2>");
  const std::string long_repr = record_of_length(64, 65).repr();
  EXPECT_EQ(long_repr.rfind("<[p0.0 p1.1 p2.2 p3.0 ", 0), 0u) << long_repr;
  EXPECT_NE(long_repr.find(" p62.2 p63.0],65>"), std::string::npos)
      << long_repr;
}

TEST(Timestamp, CompareAlgorithm3) {
  using core::PairTimestamp;
  EXPECT_TRUE(core::compare(PairTimestamp{1, 5}, PairTimestamp{2, 0}));
  EXPECT_TRUE(core::compare(PairTimestamp{2, 0}, PairTimestamp{2, 1}));
  EXPECT_FALSE(core::compare(PairTimestamp{2, 1}, PairTimestamp{2, 1}));
  EXPECT_FALSE(core::compare(PairTimestamp{2, 1}, PairTimestamp{2, 0}));
  EXPECT_FALSE(core::compare(PairTimestamp{3, 0}, PairTimestamp{2, 9}));
}

}  // namespace
