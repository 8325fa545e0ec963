// The static-analysis layer: footprint extraction (the schedule battery over
// each family's systems, and the access map it fills), the ownership lint
// against deliberately broken families — a planted multi-writer max-scan
// among them — and lowering declared masks into the explorer's
// WriteFootprints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/access_map.hpp"
#include "analysis/footprint.hpp"
#include "api/registry.hpp"
#include "runtime/system.hpp"
#include "verify/explorer.hpp"

namespace {

using namespace stamped;

constexpr std::uint64_t bit(int p) { return std::uint64_t{1} << p; }

// A buggy max-scan variant: each getTS writes the NEIGHBOR's register
// ((pid + 1) % n) instead of its own — a multi-writer violation of the
// declared SWMR footprint that the lint must catch.
runtime::ProcessTask rogue_maxscan_program(
    runtime::System<std::int64_t>::Ctx& ctx, int pid, int n, int num_calls) {
  for (int k = 0; k < num_calls; ++k) {
    std::int64_t mx = 0;
    for (int i = 0; i < n; ++i) {
      mx = std::max(mx, co_await ctx.read(i));
    }
    co_await ctx.write((pid + 1) % n, mx + 1);
    ctx.note_call_complete();
  }
}

runtime::SystemFactory rogue_maxscan_factory(int n, int calls) {
  return [n, calls]() -> std::unique_ptr<runtime::ISystem> {
    using Sys = runtime::System<std::int64_t>;
    std::vector<Sys::Program> programs;
    for (int p = 0; p < n; ++p) {
      programs.push_back([p, n, calls](Sys::Ctx& ctx) {
        return rogue_maxscan_program(ctx, p, n, calls);
      });
    }
    return std::make_unique<Sys>(n, std::int64_t{0}, std::move(programs));
  };
}

TEST(Footprint, MaxscanObservedSwmr) {
  // The schedule battery over the family's own systems shows the paper's
  // SWMR layout: register r written by process r only, `calls` times in
  // every complete run, read by everyone, with reads and writes and no
  // other op kind.
  const int n = 3;
  const int calls = 2;
  const analysis::ObservedFootprint obs = analysis::observe_footprint(
      api::family("maxscan"), {.n = n, .calls_per_process = calls});
  const analysis::AccessMap& map = obs.map;
  ASSERT_EQ(map.num_registers(), n);
  ASSERT_GT(obs.complete_runs, 0u);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(map.reg(r).writer_mask, bit(r)) << "reg " << r;
    EXPECT_EQ(map.reg(r).reader_mask, bit(0) | bit(1) | bit(2));
    EXPECT_EQ(map.reg(r).writes, calls * obs.complete_runs) << "reg " << r;
    EXPECT_EQ(map.reg(r).op_kinds,
              (1u << static_cast<unsigned>(runtime::OpKind::kRead)) |
                  (1u << static_cast<unsigned>(runtime::OpKind::kWrite)));
  }
}

TEST(AccessMap, SwapAndFetchAddCountAsReadAndWrite) {
  analysis::AccessMap map(2, 2);
  map.record(1, runtime::OpKind::kWrite, 0);
  map.record(1, runtime::OpKind::kSwap, 1);
  map.record(1, runtime::OpKind::kFetchAdd, 0);
  map.record(1, runtime::OpKind::kRead, 0);
  EXPECT_EQ(map.reg(1).writer_mask, bit(1));
  EXPECT_EQ(map.reg(1).reader_mask, bit(1));  // swap observes the old value
  EXPECT_EQ(map.reg(0).writes, 2u);           // write + fetch_add
  EXPECT_EQ(map.reg(0).reads, 2u);            // fetch_add + read
}

TEST(Footprint, SqrtSentinelObservedNeverWritten) {
  const api::TimestampFamily& fam = api::family("sqrt-oneshot");
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 1;
  const analysis::ObservedFootprint obs =
      analysis::observe_footprint(fam, spec);
  const int m = obs.map.num_registers();
  ASSERT_GE(m, 2);
  EXPECT_EQ(obs.map.reg(m - 1).writes, 0u)
      << "Algorithm 4's sentinel register was written";
  EXPECT_TRUE(obs.unwritten_in_complete_run[static_cast<std::size_t>(m - 1)]);
  EXPECT_GT(obs.map.reg(0).writes, 0u);
  EXPECT_GT(obs.complete_runs, 0u);
}

TEST(Footprint, GrowingPoolTailObservedNeverWritten) {
  const api::TimestampFamily& fam = api::family("growing-oneshot");
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.calls_per_process = 2;
  const analysis::ObservedFootprint obs =
      analysis::observe_footprint(fam, spec);
  for (int r = static_cast<int>(spec.total_calls());
       r < obs.map.num_registers(); ++r) {
    EXPECT_EQ(obs.map.reg(r).writes, 0u) << "pool tail reg " << r;
  }
}

TEST(Footprint, RejectsCountsOnlySpec) {
  // The access map is read off step infos, which a kCountsOnly system does
  // not keep; observing one would silently see no accesses at all.
  api::ScenarioSpec spec;
  spec.n = 2;
  spec.recording = runtime::RecordingMode::kCountsOnly;
  EXPECT_THROW(static_cast<void>(analysis::observe_footprint(
                   api::family("maxscan"), spec)),
               invariant_error);
}

TEST(Footprint, WriteFootprintsLowersDeclaredMasks) {
  const api::TimestampFamily& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 3;
  const auto fp = analysis::write_footprints(fam, spec);
  ASSERT_EQ(fp->reg_writers.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(fp->writers_of(r), bit(r));
  }
  // Outside the declared geometry: no information, everyone may write.
  EXPECT_EQ(fp->writers_of(17), ~std::uint64_t{0});
}

TEST(FootprintLint, CatchesPlantedUndeclaredWriter) {
  api::TimestampFamily rogue = api::family("maxscan");
  rogue.factory = [](const api::ScenarioSpec& spec) {
    return rogue_maxscan_factory(spec.n, spec.calls_per_process);
  };
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 1;
  const analysis::LintReport report = analysis::lint_footprints(rogue, spec);
  ASSERT_FALSE(report.ok());
  bool found_undeclared = false;
  for (const analysis::LintIssue& i : report.issues) {
    found_undeclared |= i.message.find("undeclared writer") !=
                        std::string::npos;
  }
  EXPECT_TRUE(found_undeclared) << report.to_string();
}

TEST(FootprintLint, ReportsMissingDeclaration) {
  api::TimestampFamily undeclared = api::family("maxscan");
  undeclared.footprint = {};
  api::ScenarioSpec spec;
  spec.n = 2;
  const analysis::LintReport report =
      analysis::lint_footprints(undeclared, spec);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues.front().message.find("declares no footprint"),
            std::string::npos);
}

TEST(FootprintLint, RejectsMultiWriterMaskInSwmrFamily) {
  api::TimestampFamily broken = api::family("maxscan");
  broken.footprint.writer_mask = [](const api::ScenarioSpec& spec, int reg) {
    // Over-declares: everyone may write everything — SWMR in name only.
    (void)reg;
    return (std::uint64_t{1} << spec.n) - 1;
  };
  api::ScenarioSpec spec;
  spec.n = 2;
  const analysis::LintReport report = analysis::lint_footprints(broken, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("declared SWMR"), std::string::npos);
}

TEST(ExactFootprints, NeverWidensThePersistentTree) {
  // Direct explorer-level check (the conformance suite runs the harness
  // path): with the static write map the persistent closure takes the
  // smaller of the two relations per seed, so node counts can only drop.
  const api::TimestampFamily& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 1;
  const runtime::SystemFactory make = fam.factory(spec);
  const verify::InstanceFactory factory = [&make]() {
    verify::ExplorationInstance inst;
    inst.sys = make();
    inst.check = []() { return std::nullopt; };
    return inst;
  };
  verify::ExploreOptions opts;
  opts.por = true;
  opts.persistent = true;
  const verify::ExploreResult heuristic =
      verify::explore_all_executions(factory, opts);
  opts.footprints = analysis::write_footprints(fam, spec);
  const verify::ExploreResult exact =
      verify::explore_all_executions(factory, opts);

  EXPECT_TRUE(exact.ok());
  EXPECT_LE(exact.nodes, heuristic.nodes);
  EXPECT_LT(exact.nodes, heuristic.nodes)
      << "static SWMR map found no extra reduction on maxscan n=3";

  const verify::PorCrossCheck cc = verify::crosscheck_por(factory, opts);
  EXPECT_TRUE(cc.agree());
  EXPECT_EQ(cc.full.violations.size(), 0u);
}

}  // namespace
