// Coverage-guided schedule fuzzer: guided breadth between the random sweeps
// and the exhaustive explorer, steering toward interleavings no earlier
// execution reached, as measured by CoverageMap (verify/coverage.hpp).
//
// Each execution runs on a fresh instance and is guided by a schedule.
// Execution 0 is pure seeded random, and its length sizes the guides of
// executions 1 and 2: fully sequential and strict round-robin, whose
// call-boundary adjacencies uniform random reaches with vanishing
// probability. Later executions replay a mutant of a corpus parent, except
// that after kDrySpell executions in a row with no fresh coverage the next
// one is pure random again, the cheaper probe once mutants re-tread known
// territory. A guide is replayed with repair (steps of a finished process
// are skipped) and completed under the same seeded random stream. A schedule
// that reached fresh signatures joins the corpus, which evicts its oldest
// parent beyond FuzzOptions::max_corpus. Signatures come from
// ISystem::step_infos(), so the systems must record in RecordingMode::kFull.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/scheduler.hpp"
#include "util/rng.hpp"
#include "verify/explorer.hpp"

namespace stamped::verify {

/// Budget and seed of the coverage-guided schedule fuzzer.
struct FuzzOptions {
  /// Seed of the mutation stream, combined with the seed fuzz_schedules is
  /// given (the harness passes ScenarioSpec::seed), so the same source can
  /// drive distinct sweeps.
  std::uint64_t seed = 0;
  /// Executions to run. Every execution costs one fresh instance.
  std::uint64_t budget = 64;
  /// Schedules retained as mutation parents (oldest evicted beyond this).
  std::size_t max_corpus = 64;
};

/// What a fuzzing run of FuzzOptions::budget executions reached. The
/// fuzzer does not read the instance checks' verdicts: a caller that wants
/// every violation collects them in its check.
struct FuzzResult {
  std::uint64_t signatures = 0;   ///< distinct op-pair signatures reached
  std::uint64_t corpus_size = 0;  ///< schedules retained as mutation parents
  bool all_finished = true;       ///< every execution finished every process
};

/// One mutation of a corpus schedule, its kind drawn uniformly: splice (a
/// prefix of one parent and a suffix of another), shift (a block of at most
/// 8 steps moved elsewhere), transpose (two steps swapped), burst (one
/// process in [0, num_processes) runs 4..19 consecutive steps, adjacencies a
/// uniform random schedule almost never produces) or truncate (a prefix; the
/// dropped tail re-randomizes during repair). Every draw comes from `rng`.
[[nodiscard]] runtime::Schedule mutate_schedule(
    const std::vector<runtime::Schedule>& corpus, int num_processes,
    util::Rng& rng);

/// Runs opts.budget executions of instances from `factory` under the search
/// above and calls each instance's check once its execution completes. Every
/// draw comes from one rng seeded with `seed ^ (opts.seed *
/// 0x9e3779b97f4a7c15)`, so a run is a pure function of its inputs. Each
/// execution takes at most `max_steps` steps; a failure inside a program
/// throws (runtime::check_no_failures).
FuzzResult fuzz_schedules(const InstanceFactory& factory,
                          const FuzzOptions& opts, std::uint64_t seed,
                          std::uint64_t max_steps);

}  // namespace stamped::verify
