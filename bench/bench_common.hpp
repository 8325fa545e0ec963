// Shared helpers for the table/figure benchmarks (docs/paper-map.md maps
// each table to the paper). Each bench binary prints its paper-style
// table(s) first, then runs its google-benchmark timing section unless it
// was given --table-only.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace stamped::bench {

/// The log-free simulated systems of registry family `family` with n
/// processes making `calls` getTS calls each.
inline runtime::SystemFactory family_factory(const char* family, int n,
                                             int calls = 1) {
  return api::family(family).factory({.n = n, .calls_per_process = calls});
}

/// Distinct registers written by a full random-schedule run of the system
/// built by `factory`, maximized over `seeds`.
inline int max_registers_written_random(const runtime::SystemFactory& factory,
                                        const std::vector<std::uint64_t>& seeds) {
  int worst = 0;
  for (std::uint64_t seed : seeds) {
    auto sys = factory();
    util::Rng rng(seed);
    runtime::run_random(*sys, rng, std::uint64_t{1} << 32);
    runtime::check_no_failures(*sys);
    worst = std::max(worst, sys->registers_written());
  }
  return worst;
}

/// Distinct registers written by a fully sequential run (process 0 completes,
/// then process 1, ...).
inline int registers_written_sequential(const runtime::SystemFactory& factory) {
  auto sys = factory();
  for (int p = 0; p < sys->num_processes(); ++p) {
    runtime::run_solo_until_calls_complete(*sys, p, 1, std::uint64_t{1} << 32);
  }
  runtime::check_no_failures(*sys);
  return sys->registers_written();
}

/// Standard seed set used across space benchmarks.
inline std::vector<std::uint64_t> standard_seeds() {
  return {101, 202, 303, 404, 505};
}

/// Staggered arrival: processes arrive in groups of `group`; each group runs
/// to completion under a random schedule before the next group starts. This
/// is the workload that actually drives Algorithm 4 through many phases —
/// under a fully random schedule almost every call lands in phase 1 (it
/// observes the phase-1 record and returns without writing), while fully
/// sequential arrival maximizes the phase count.
///
/// Delegates to api::staggered() so there is exactly ONE implementation of
/// this schedule: t4 (via this shim) and t2 (via the generic driver) consume
/// the same RNG sequence, keeping their baseline tables comparable.
inline void run_staggered(runtime::ISystem& sys, int group, util::Rng& rng) {
  api::staggered(group).drive(sys, rng, std::uint64_t{1} << 32);
}

/// Staller workload: the first half of the processes run up to (but not
/// including) their first write and stall there; the second half runs to
/// completion; then the stalled writers are released. Exercises Algorithm
/// 4's stale-write paths (lines 10-12).
inline void run_with_stallers(runtime::ISystem& sys, util::Rng& rng) {
  const int n = sys.num_processes();
  const std::unordered_set<int> nothing;
  for (int p = 0; p < n / 2; ++p) {
    runtime::run_solo_until_poised_outside(sys, p, nothing,
                                           std::uint64_t{1} << 24);
  }
  std::vector<int> live;
  auto drain = [&](int lo, int hi) {
    for (;;) {
      live.clear();
      for (int p = lo; p < hi; ++p) {
        if (!sys.finished(p)) live.push_back(p);
      }
      if (live.empty()) break;
      sys.step(live[static_cast<std::size_t>(rng.next_below(live.size()))]);
    }
  };
  drain(n / 2, n);
  drain(0, n / 2);
}

/// Slug for a table title: "T2a: one-shot space" -> "T2a_one_shot_space".
inline std::string title_slug(const std::string& title) {
  std::string slug;
  for (char ch : title) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug.push_back(ch);
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// True when the benchmark was invoked with --table-only: print the paper
/// tables (and write their BENCH_*.json twins) but skip the Google Benchmark
/// timing section. CI uses this to regenerate the deterministic space tables
/// cheaply and diff them against bench/baselines/ (tools/bench_diff.py).
inline bool table_only(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--table-only") return true;
  }
  return false;
}

/// Prints the table, flushes (bench output is consumed by tee), and writes
/// the machine-readable BENCH_<slug>.json twin into the working directory.
inline void emit(const util::Table& table) {
  std::cout << table.render() << std::endl;
  const std::string path = "BENCH_" + title_slug(table.title()) + ".json";
  std::ofstream json(path);
  json << table.render_json() << '\n';
  json.flush();
  if (!json) {
    std::cerr << "warning: could not write " << path << '\n';
  }
}

}  // namespace stamped::bench
