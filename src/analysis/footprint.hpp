// Footprint extraction and the ownership lint.
//
// The paper's space bounds rest on register-access structure: max-scan and
// the bounded algorithm are SWMR (process p writes only register p), the
// one-shot algorithms share registers among declared writer sets, and
// Algorithm 4 allocates a sentinel that is read but never written. Each
// TimestampFamily now DECLARES that structure (api::FootprintSpec); this
// module OBSERVES it from executions and diffs the two:
//
//  - observe_footprint(family, spec): dry-runs the family's deterministic
//    factory under a battery of schedules (per-process solo runs, round
//    robin, seeded random) and merges the step-info logs into an AccessMap —
//    the observed writer/reader sets and op kinds per register.
//  - lint_footprints(family, spec): fails loudly on undeclared writers
//    (observed writer outside the declared mask), multi-writer registers in
//    families declared SWMR, never-written allocations that are not declared
//    sentinels, and op kinds outside the declared set.
//  - write_footprints(family, spec): lowers the declared masks into
//    verify::WriteFootprints for the explorer's footprint-driven persistent
//    sets (ExploreOptions::footprints).
//
// Observation is per-schedule sound (everything recorded really happened)
// and under-approximate in general (a schedule not driven may touch more);
// the declared mask is the over-approximation the lint checks it against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/access_map.hpp"
#include "api/family.hpp"
#include "verify/explorer.hpp"

namespace stamped::analysis {

/// Schedule battery of observe_footprint. The defaults finish in
/// milliseconds on every registry family at conformance-suite sizes.
struct ObserveOptions {
  int random_schedules = 8;     ///< seeded random runs to merge
  std::uint64_t max_steps = 1u << 20;  ///< per-run step guard
  std::uint64_t seed = 1;       ///< base seed of the random battery
};

/// Merged observation of the schedule battery.
struct ObservedFootprint {
  AccessMap map;
  std::uint64_t complete_runs = 0;  ///< runs where every process finished
  /// unwritten_in_complete_run[r]: some COMPLETE run ended with register r
  /// never written — the evidence the sentinel rule inspects.
  std::vector<bool> unwritten_in_complete_run;
};

/// One lint finding; reg < 0 for family-level findings.
struct LintIssue {
  int reg = -1;
  std::string message;
};

struct LintReport {
  std::string family;
  std::vector<LintIssue> issues;
  ObservedFootprint observed;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  /// Multi-line human rendering ("" when ok) for test and CLI output.
  [[nodiscard]] std::string to_string() const;
};

/// Runs the schedule battery against family.factory(spec) and merges the
/// observed access maps. Reads step infos, so it rejects a spec whose
/// recording is not kFull.
[[nodiscard]] ObservedFootprint observe_footprint(
    const api::TimestampFamily& family, const api::ScenarioSpec& spec,
    const ObserveOptions& opts = {});

/// Diffs family.footprint against observe_footprint(family, spec).
[[nodiscard]] LintReport lint_footprints(const api::TimestampFamily& family,
                                         const api::ScenarioSpec& spec,
                                         const ObserveOptions& opts = {});

/// Lowers the declared writer masks into the explorer's static write map.
/// Requires a declared footprint (family.footprint.declared()).
[[nodiscard]] std::shared_ptr<const verify::WriteFootprints> write_footprints(
    const api::TimestampFamily& family, const api::ScenarioSpec& spec);

}  // namespace stamped::analysis
