// Tests: the sharded timestamp service (src/shard/) — routing layout,
// composed-timestamp comparison, harness integration on both backends, and
// the cross-shard monotonicity checker (including the planted epoch-dropping
// mis-composition it must catch).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"
#include "core/timestamp.hpp"
#include "shard/compose.hpp"
#include "shard/sharded_instance.hpp"
#include "util/assert.hpp"
#include "verify/cross_shard.hpp"

namespace {

using namespace stamped;

TEST(ShardLayout, StaticRoutingPartitionsClients) {
  const auto layout = shard::ShardLayout::make(
      /*clients=*/10, /*shards=*/4, /*rehash_calls=*/false,
      [](int w) { return w; });
  EXPECT_EQ(layout.shards, 4);
  EXPECT_EQ(layout.clients, 10);
  // Every client sits in exactly one shard, with a dense local pid.
  std::vector<int> seen_per_shard(4, 0);
  for (int c = 0; c < 10; ++c) {
    const int s = layout.shard_of[static_cast<std::size_t>(c)];
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(layout.local_pid[static_cast<std::size_t>(c)],
              seen_per_shard[static_cast<std::size_t>(s)]);
    ++seen_per_shard[static_cast<std::size_t>(s)];
    EXPECT_EQ(layout.route(c, 0), s);
    EXPECT_EQ(layout.route(c, 7), s);  // static routing ignores call index
  }
  int members_total = 0;
  std::int64_t regs_total = 0;
  for (int s = 0; s < 4; ++s) {
    members_total +=
        static_cast<int>(layout.members[static_cast<std::size_t>(s)].size());
    EXPECT_EQ(layout.width[static_cast<std::size_t>(s)],
              seen_per_shard[static_cast<std::size_t>(s)]);
    regs_total += layout.regs[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(members_total, 10);
  EXPECT_EQ(layout.total_regs, regs_total);
}

TEST(ShardLayout, RehashRoutingSpreadsCallsOfOneClient) {
  const auto layout = shard::ShardLayout::make(
      /*clients=*/4, /*shards=*/4, /*rehash_calls=*/true,
      [](int w) { return w; });
  // Rehash mode seats every client in every shard under its own global id.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(layout.width[static_cast<std::size_t>(s)], 4);
    EXPECT_EQ(layout.members[static_cast<std::size_t>(s)].size(), 4u);
  }
  // Some client's consecutive calls must land on different shards (that is
  // the point of per-call rehashing).
  bool hopped = false;
  for (int c = 0; c < 4 && !hopped; ++c) {
    for (int k = 1; k < 8; ++k) {
      if (layout.route(c, k) != layout.route(c, k - 1)) {
        hopped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(hopped);
}

TEST(ComposedCompare, EpochDominatesThenShardThenLocal) {
  const shard::ComposedCompare<std::int64_t, core::Compare> cmp{{}};
  using C = shard::ComposedTs<std::int64_t>;
  // Different epochs: epoch order decides, local labels ignored.
  EXPECT_TRUE(cmp(C{1, 0, 99}, C{2, 0, 1}));
  EXPECT_FALSE(cmp(C{2, 0, 1}, C{1, 0, 99}));
  // Equal epoch, same shard: the family comparator on local labels.
  EXPECT_TRUE(cmp(C{3, 1, 4}, C{3, 1, 5}));
  EXPECT_FALSE(cmp(C{3, 1, 5}, C{3, 1, 4}));
  // Equal epoch, different shards: incomparable both ways (epochs are
  // unique per draw, so only a mis-composition produces such pairs).
  EXPECT_FALSE(cmp(C{3, 0, 1}, C{3, 1, 2}));
  EXPECT_FALSE(cmp(C{3, 1, 2}, C{3, 0, 1}));
  // Irreflexive.
  EXPECT_FALSE(cmp(C{3, 1, 4}, C{3, 1, 4}));
}

TEST(CrossShardChecker, CatchesDroppedEpoch) {
  // Hand-built history: client 0 calls on shard 0 (label 5), then — after
  // responding — on shard 1 (label 1). With epochs composed correctly the
  // hop is monotone; with the epoch dropped (both 0) the composed compare
  // falls back to "different shard => false both ways" and the hop breaks.
  using C = shard::ComposedTs<std::int64_t>;
  const shard::ComposedCompare<std::int64_t, core::Compare> cmp{{}};
  const auto shard_of = [](const runtime::CallRecord<C>& r) {
    return r.ts.shard;
  };
  std::vector<runtime::CallRecord<C>> good;
  good.push_back({0, 0, C{1, 0, 5}, 1, 2});
  good.push_back({0, 1, C{2, 1, 1}, 3, 4});
  const auto ok = verify::check_cross_shard_monotonicity(good, cmp, shard_of);
  EXPECT_TRUE(ok.ok()) << ok.to_string();
  EXPECT_EQ(ok.ordered_pairs_checked, 1u);

  std::vector<runtime::CallRecord<C>> dropped;
  dropped.push_back({0, 0, C{0, 0, 5}, 1, 2});
  dropped.push_back({0, 1, C{0, 1, 1}, 3, 4});
  const auto bad =
      verify::check_cross_shard_monotonicity(dropped, cmp, shard_of);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ordered_pairs_checked, 1u);

  // Same-shard hops carry no cross-shard obligation even when broken.
  std::vector<runtime::CallRecord<C>> same_shard;
  same_shard.push_back({0, 0, C{0, 0, 5}, 1, 2});
  same_shard.push_back({0, 1, C{0, 0, 1}, 3, 4});
  const auto skipped =
      verify::check_cross_shard_monotonicity(same_shard, cmp, shard_of);
  EXPECT_EQ(skipped.ordered_pairs_checked, 0u);
}

TEST(ShardedHarness, PlantedEpochDropIsCaughtAtPinnedSeed) {
  // The differential test the checker exists for: run the REAL service with
  // the planted drop_epoch mis-composition (every composed timestamp reports
  // epoch 0) under per-call rehash routing, and require the cross-shard
  // checker to produce violations. The per-shard histories are perfectly
  // valid — only the cross-shard view can see this bug.
  api::ScenarioSpec spec;
  spec.n = 6;
  spec.calls_per_process = 4;
  spec.seed = 7;  // pinned: the run is deterministic on the simulator
  spec.shard.shards = 4;
  spec.shard.rehash_calls = true;
  spec.shard.drop_epoch = true;
  const auto rep = api::Harness{}.run_scenario(
      api::family("maxscan"), spec, api::seeded_random());
  EXPECT_TRUE(rep.all_finished);
  EXPECT_FALSE(rep.ok()) << "planted epoch drop must be caught";
  bool cross_shard_violation = false;
  for (const std::string& v : rep.violations) {
    if (v.find("cross-shard") != std::string::npos) {
      cross_shard_violation = true;
    }
  }
  EXPECT_TRUE(cross_shard_violation)
      << "violations did not include a cross-shard finding: "
      << rep.summary();
}

TEST(ShardedHarness, AllFamiliesCleanOnSimAcrossShardCounts) {
  // The clean path: every registry family through the sharded service at
  // shards in {1, 2, 4}, static and rehash routing, full checkers on.
  // Simulator backend, so fully deterministic.
  for (const auto& fam : api::registry()) {
    ASSERT_NE(fam.make_sharded, nullptr) << fam.name;
    for (int shards : {1, 2, 4}) {
      for (const bool rehash : {true, false}) {
        api::ScenarioSpec spec;
        spec.n = 6;
        spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 3;
        spec.shard.shards = shards;
        spec.shard.rehash_calls = rehash;
        const auto rep = api::Harness{}.run_scenario(
            fam, spec, api::seeded_random());
        EXPECT_TRUE(rep.ok()) << fam.name << " shards=" << shards
                              << " rehash=" << rehash << ": "
                              << rep.summary();
        EXPECT_TRUE(rep.all_finished) << fam.name;
        EXPECT_EQ(rep.calls, static_cast<std::uint64_t>(spec.total_calls()))
            << fam.name;
        EXPECT_EQ(rep.shards, shards);
        const std::uint64_t shard_sum = std::accumulate(
            rep.shard_calls.begin(), rep.shard_calls.end(),
            std::uint64_t{0});
        EXPECT_EQ(shard_sum, rep.calls) << fam.name;
      }
    }
  }
}

TEST(ShardedHarness, NativeBackendRunsAndChecksClean) {
  // Spot check on real threads: maxscan and fetchadd, rehash routing, full
  // checkers on the recorded composed/per-shard histories.
  for (const char* name : {"maxscan", "fetchadd"}) {
    api::ScenarioSpec spec;
    spec.n = 8;
    spec.calls_per_process = 8;
    spec.backend = api::Backend::kNative;
    spec.native_threads = 4;
    spec.shard.shards = 4;
    spec.shard.rehash_calls = true;
    const auto rep = api::Harness{}.run_scenario(api::family(name), spec,
                                                 api::native_os());
    EXPECT_TRUE(rep.ok()) << name << ": " << rep.summary();
    EXPECT_TRUE(rep.all_finished) << name;
    EXPECT_EQ(rep.calls, static_cast<std::uint64_t>(spec.total_calls()))
        << name;
    EXPECT_EQ(rep.shards, 4) << name;
    EXPECT_GT(rep.cross_shard_pairs, 0u)
        << name << ": rehash routing should produce cross-shard hops";
  }
}

TEST(ShardedHarness, CoveringAdversaryCompletesClean) {
  // covering_adversary runs each client solo until it is poised to write a
  // fresh register, then parks it there. A parked client holds nothing the
  // others wait on, so the run drains to a clean, fully checked completion.
  api::ScenarioSpec spec;
  spec.n = 4;
  spec.calls_per_process = 2;
  spec.shard.shards = 2;
  const auto rep = api::Harness{}.run_scenario(api::family("maxscan"), spec,
                                               api::covering_adversary());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(rep.all_finished) << rep.summary();
  EXPECT_EQ(rep.calls, static_cast<std::uint64_t>(spec.total_calls()));
}

TEST(ShardedHarness, SummaryCarriesShardLine) {
  api::ScenarioSpec spec;
  spec.n = 4;
  spec.calls_per_process = 2;
  spec.shard.shards = 2;
  const auto rep = api::Harness{}.run_scenario(api::family("maxscan"), spec,
                                               api::round_robin());
  EXPECT_NE(rep.summary().find("shards=2"), std::string::npos)
      << rep.summary();
}

}  // namespace
