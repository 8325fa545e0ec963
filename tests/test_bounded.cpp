// Tests: the bounded-universe long-lived timestamp object
// (core/bounded_longlived.hpp, Haldar–Vitányi style).
//
// Coverage mirrors the unbounded objects' suites: compare sanity on the whole
// finite universe, space accounting, the timestamp property under sequential
// / random / exhaustively-explored schedules (within the recycling window),
// per-process monotonicity, and — the part no unbounded object has — long
// runs that wrap the label universe, checked against the windowed property.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "api/engine_family.hpp"
#include "api/engines.hpp"
#include "api/registry.hpp"
#include "core/bounded_longlived.hpp"
#include "runtime/scheduler.hpp"
#include "verify/explorer.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using core::BoundedCompare;
using core::BoundedTimestamp;
using Bounded = api::EngineInstance<api::BoundedEngine>;

/// A bounded instance: n processes making `calls` getTS calls each on
/// modulus `modulus` (0: the smallest whose window covers every call).
api::ScenarioSpec bounded_spec(int n, int calls, std::int32_t modulus = 0) {
  return {.n = n, .calls_per_process = calls, .universe_bound = modulus};
}

BoundedTimestamp ts(std::int32_t modulus, std::vector<std::int32_t> comps) {
  return {modulus, std::move(comps)};
}

// -- compare on the finite universe -----------------------------------------

TEST(BoundedCompare, IrreflexiveAndAsymmetricOnWholeUniverse) {
  // K = 5, n = 2: all 25 labels. Irreflexivity and asymmetry must hold
  // globally, not just within a window.
  const std::int32_t k = 5;
  std::vector<BoundedTimestamp> universe;
  for (std::int32_t a = 0; a < k; ++a) {
    for (std::int32_t b = 0; b < k; ++b) {
      universe.push_back(ts(k, {a, b}));
    }
  }
  for (const auto& a : universe) {
    EXPECT_FALSE(bounded_before(a, a)) << a.repr();
    for (const auto& b : universe) {
      EXPECT_FALSE(bounded_before(a, b) && bounded_before(b, a))
          << a.repr() << " vs " << b.repr();
    }
  }
}

TEST(BoundedCompare, StrictPartialOrderOnWindowCoherentSets) {
  // Transitivity within the window: whenever a < b, b < c, and (a, c) are
  // window-coherent (every forward difference <= W), a < c must hold. This is
  // the sense in which compare is a strict partial order on labels
  // simultaneously in circulation.
  const std::int32_t k = 5;
  const std::int32_t w = core::bounded_window(k);  // 2
  std::vector<BoundedTimestamp> universe;
  for (std::int32_t a = 0; a < k; ++a) {
    for (std::int32_t b = 0; b < k; ++b) {
      universe.push_back(ts(k, {a, b}));
    }
  }
  auto coherent = [&](const BoundedTimestamp& a, const BoundedTimestamp& b) {
    for (std::size_t i = 0; i < a.comps.size(); ++i) {
      if (((b.comps[i] - a.comps[i]) % k + k) % k > w) return false;
    }
    return true;
  };
  int triples_checked = 0;
  for (const auto& a : universe) {
    for (const auto& b : universe) {
      if (!bounded_before(a, b)) continue;
      for (const auto& c : universe) {
        if (!bounded_before(b, c) || !coherent(a, c)) continue;
        EXPECT_TRUE(bounded_before(a, c))
            << a.repr() << " < " << b.repr() << " < " << c.repr();
        ++triples_checked;
      }
    }
  }
  EXPECT_GT(triples_checked, 100);
}

TEST(BoundedCompare, RecyclingWrapsForward) {
  // Value K-1 recycles to 0: with K = 5, W = 2, the wrapped label still
  // dominates within the window.
  const std::int32_t k = 5;
  EXPECT_TRUE(bounded_before(ts(k, {4, 4}), ts(k, {0, 0})));   // +1, +1 (wrap)
  EXPECT_FALSE(bounded_before(ts(k, {0, 0}), ts(k, {4, 4})));  // reverse
  EXPECT_TRUE(bounded_before(ts(k, {3, 4}), ts(k, {0, 1})));   // +2, +2
  // Outside the window: incomparable in both directions is allowed — but
  // never comparable both ways.
  EXPECT_FALSE(bounded_before(ts(k, {0, 0}), ts(k, {3, 0})));  // diff 3 > W
}

TEST(BoundedCompare, MismatchedShapesIncomparable) {
  EXPECT_FALSE(bounded_before(ts(5, {1, 1}), ts(7, {2, 2})));
  EXPECT_FALSE(bounded_before(ts(5, {1, 1}), ts(5, {2, 2, 2})));
}

TEST(BoundedCompare, ModulusAndBitsHelpers) {
  EXPECT_EQ(core::bounded_modulus_for(1), 3);
  EXPECT_EQ(core::bounded_modulus_for(3), 7);
  EXPECT_EQ(core::bounded_window(5), 2);
  EXPECT_EQ(core::bounded_window(7), 3);
  // K = 5: 3 bits for val (0..4) + 3 bits for gen (0..5).
  EXPECT_EQ(core::bounded_bits_per_register(5), 6);
  // K = 3: 2 + 2.
  EXPECT_EQ(core::bounded_bits_per_register(3), 4);
}

// -- the simulated object ----------------------------------------------------

TEST(Bounded, UsesExactlyNRegistersAndBoundedValues) {
  const int n = 6;
  const int calls = 3;
  Bounded inst(bounded_spec(n, calls), api::Backend::kSim);
  auto& sys = inst.system();
  EXPECT_EQ(sys.num_registers(), n);
  util::Rng rng(11);
  runtime::run_random(sys, rng, 1 << 22);
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  EXPECT_EQ(sys.registers_written(), n);
  const std::int32_t k = core::bounded_modulus_for(calls);
  for (const auto& rec : inst.records()) {
    EXPECT_EQ(rec.ts.modulus, k);
    ASSERT_EQ(static_cast<int>(rec.ts.comps.size()), n);
    for (std::int32_t c : rec.ts.comps) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, k);
    }
  }
}

TEST(Bounded, SequentialCallsAreStrictlyOrdered) {
  const int n = 4;
  const int calls = 2;
  Bounded inst(bounded_spec(n, calls), api::Backend::kSim);
  auto& sys = inst.system();
  for (int round = 0; round < calls; ++round) {
    for (int p = 0; p < n; ++p) {
      ASSERT_TRUE(runtime::run_solo_until_calls_complete(sys, p, 1, 1000));
    }
  }
  runtime::check_no_failures(sys);
  auto records = inst.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n * calls));
  // In a fully sequential run every pair of calls is ordered; compare must
  // agree with the execution order over the whole history.
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_TRUE(bounded_before(records[i].ts, records[i + 1].ts))
        << records[i].ts.repr() << " -> " << records[i + 1].ts.repr();
  }
}

// NOTE: the (n, calls, seed) property sweep that used to live here is now
// part of the registry-wide conformance suite (test_api_conformance.cpp),
// which runs the same check for every family under every schedule source
// (the bounded family's windowed obligation is applied via its pair filter).

TEST(Bounded, ConcurrentCallsMayShareTimestamps) {
  // Both processes scan before either writes: identical vectors except the
  // own component — concurrent, and legal under the weak specification.
  const int n = 2;
  Bounded inst(bounded_spec(n, 1), api::Backend::kSim);
  auto& sys = inst.system();
  // Each getTS: 2 collects x 2 reads, then 1 write = 5 steps.
  runtime::run_script(sys, std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(sys.all_finished());
  runtime::check_no_failures(sys);
  auto records = inst.records();
  ASSERT_EQ(records.size(), 2u);
  auto report = verify::check_timestamp_property(records, BoundedCompare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// -- exhaustive exploration (model checking) ---------------------------------

verify::ExplorationInstance bounded_instance(int n, int calls) {
  auto owner =
      std::make_shared<Bounded>(bounded_spec(n, calls), api::Backend::kSim);
  verify::ExplorationInstance inst;
  inst.sys = owner->take_system();
  inst.check = [owner, n, calls]() -> std::optional<std::string> {
    const auto records = owner->records();
    if (static_cast<int>(records.size()) != n * calls) {
      return "expected " + std::to_string(n * calls) + " calls, saw " +
             std::to_string(records.size());
    }
    auto report = verify::check_timestamp_property(records, BoundedCompare{});
    if (!report.ok()) return report.to_string();
    auto mono =
        verify::check_per_process_monotonicity(records, BoundedCompare{});
    if (!mono.ok()) return mono.to_string();
    return std::nullopt;
  };
  return inst;
}

TEST(BoundedExplorer, ExhaustiveN2C1) {
  // EVERY interleaving of two one-call processes satisfies the property
  // (scan retries make the tree irregular, like Algorithm 4's).
  auto result =
      verify::explore_all_executions([]() { return bounded_instance(2, 1); });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.depth_exceeded);
  EXPECT_GT(result.executions, 100u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

TEST(BoundedExplorer, BudgetedN2C2AndN3C1) {
  // Larger systems are budget-capped prefixes of the schedule tree.
  for (auto [n, calls] : {std::pair{2, 2}, std::pair{3, 1}}) {
    verify::ExploreOptions opts;
    opts.max_executions = 20000;
    auto result = verify::explore_all_executions(
        [n = n, calls = calls]() { return bounded_instance(n, calls); }, opts);
    EXPECT_FALSE(result.depth_exceeded);
    EXPECT_GT(result.executions, 1000u);
    EXPECT_TRUE(result.ok()) << result.violations.front();
  }
}

// -- label recycling beyond the window ---------------------------------------

TEST(BoundedRecycling, LongRunWrapsAndSatisfiesWindowedProperty) {
  // K = 5 but 12 calls per process: own components wrap the universe at
  // least twice. The windowed property must hold: every ordered pair whose
  // interim activity fits the window is correctly ordered; pairs separated
  // by more than W generations carry no obligation (and are counted).
  const int n = 3;
  const int calls = 12;
  const std::int32_t k = 5;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Bounded inst(bounded_spec(n, calls, k), api::Backend::kSim);
    auto& sys = inst.system();
    util::Rng rng(seed);
    runtime::run_random(sys, rng, 1 << 24);
    ASSERT_TRUE(sys.all_finished());
    runtime::check_no_failures(sys);
    auto records = inst.records();
    ASSERT_EQ(static_cast<int>(records.size()), n * calls);
    EXPECT_GT(inst.engine().stats().wraps(), 0u);  // labels actually recycled
    auto filter = [&records, k](const runtime::CallRecord<BoundedTimestamp>& a,
                                const runtime::CallRecord<BoundedTimestamp>& b) {
      return core::bounded_pair_within_window(records, a, b, k);
    };
    auto report = verify::check_timestamp_property_filtered(
        records, BoundedCompare{}, filter);
    EXPECT_TRUE(report.ok()) << "seed=" << seed << " " << report.to_string();
    EXPECT_GT(report.ordered_pairs_checked, 0u);
    EXPECT_GT(report.filtered_pairs, 0u);  // the window bit: some released
    auto mono = verify::check_per_process_monotonicity_filtered(
        records, BoundedCompare{}, filter);
    EXPECT_TRUE(mono.ok()) << "seed=" << seed << " " << mono.to_string();
  }
}

TEST(BoundedRecycling, StatsCountCallsAndCollects) {
  const int n = 3;
  const int calls = 4;
  Bounded inst(bounded_spec(n, calls), api::Backend::kSim);
  auto& sys = inst.system();
  util::Rng rng(3);
  runtime::run_random(sys, rng, 1 << 22);
  ASSERT_TRUE(sys.all_finished());
  EXPECT_EQ(sys.calls_completed_total(), static_cast<std::uint64_t>(n * calls));
  // Every scan performs at least two collects.
  EXPECT_GE(inst.engine().stats().collects(), 2 * sys.calls_completed_total());
}

TEST(Bounded, FactoryIsDeterministic) {
  auto factory = api::family("bounded").factory(bounded_spec(3, 2));
  auto a = factory();
  auto b = factory();
  const std::vector<int> script{0, 1, 2, 0, 1, 2, 0, 0, 1, 2};
  runtime::run_script(*a, script);
  runtime::run_script(*b, script);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(a->register_repr(r), b->register_repr(r));
  }
}

TEST(Bounded, ReprFormsAreInjectiveOnSmallUniverse) {
  std::set<std::string> reprs;
  for (std::int32_t v = 0; v < 5; ++v) {
    for (std::int32_t g = 0; g < 6; ++g) {
      reprs.insert(core::BoundedLabel{v, g}.repr());
    }
  }
  EXPECT_EQ(reprs.size(), 30u);
  EXPECT_EQ(ts(5, {1, 0, 4}).repr(), "<1 0 4>%5");
}

}  // namespace
