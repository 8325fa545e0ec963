// Schedulers: drivers that choose which process takes the next step.
//
// A schedule (paper: sigma) is a sequence of process indices. The helpers in
// this header realize the executions used throughout the paper:
//  - run_script:      the execution (C; sigma) for an explicit sigma
//  - run_round_robin: a fair schedule until completion
//  - run_random:      a uniformly random adversary (seeded, reproducible)
//  - solo executions: run one process until its method call completes, or
//                     until it is poised to write outside a register set
//                     (the building block of the covering arguments)
//  - replay:          reconstruct sigma(C0) from a factory — configuration
//                     cloning for the lower-bound adversaries
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "runtime/isystem.hpp"
#include "util/rng.hpp"

namespace stamped::runtime {

/// A schedule: one process index per step.
using Schedule = std::vector<int>;

/// Creates a fresh system in its initial configuration C0. Factories must be
/// deterministic: two systems from the same factory stepped through the same
/// schedule reach indistinguishable configurations.
using SystemFactory = std::function<std::unique_ptr<ISystem>()>;

/// Executes the steps of `schedule` in order. Every scheduled process must
/// have a pending operation (i.e. not be finished). Returns the number of
/// steps executed (== schedule.size()).
std::uint64_t run_script(ISystem& sys, std::span<const int> schedule);

/// Round-robin over unfinished processes until all finish or `max_steps` is
/// reached. Returns steps executed.
std::uint64_t run_round_robin(ISystem& sys, std::uint64_t max_steps);

/// Uniformly random choice among unfinished processes each step, until all
/// finish or `max_steps`. Returns steps executed.
std::uint64_t run_random(ISystem& sys, util::Rng& rng,
                         std::uint64_t max_steps);

/// Runs only `pid` until it has completed `calls` additional method calls
/// (paper: a solo execution containing a complete getTS()).
/// Returns true on success; false if the process finished or `max_steps` was
/// hit first.
bool run_solo_until_calls_complete(ISystem& sys, int pid, std::uint64_t calls,
                                   std::uint64_t max_steps);

/// Runs only `pid` until it is poised to write to some register outside
/// `covered` (the process then covers a register outside the set). The poised
/// write is NOT executed. Returns true if such a point was reached; false if
/// the process finished (or hit `max_steps`) without ever being poised to
/// write outside `covered`.
bool run_solo_until_poised_outside(ISystem& sys, int pid,
                                   const std::unordered_set<int>& covered,
                                   std::uint64_t max_steps);

/// Steps `pid` while `predicate(sys)` is false; stops when the predicate
/// turns true, the process finishes, or `max_steps` is hit. Returns whether
/// the predicate held at stop.
bool run_solo_until(ISystem& sys, int pid,
                    const std::function<bool(ISystem&)>& predicate,
                    std::uint64_t max_steps);

/// Parameters of the crash/restart adversary (run_crash_restart): how many
/// crash events to inject, whether victims recover, and when.
struct CrashPlan {
  /// Crash events to attempt. Events are drawn one at a time: a random
  /// victim plus a threshold of additional own-steps after which it dies
  /// mid-call. An event whose victim finishes first is dropped (wait-freedom
  /// can beat the adversary), so CrashStats::crashes may be smaller.
  int crashes = 1;
  /// Recover each victim after `restart_delay` scheduler ticks with fresh
  /// local state (ISystem::restart_process).
  /// When false, victims simply never take another step.
  bool restart = false;
  /// A victim dies after [min_victim_steps, max_victim_steps] further steps
  /// of its own (uniform, seeded) — mid-call for any multi-step algorithm.
  std::uint64_t min_victim_steps = 1;
  std::uint64_t max_victim_steps = 24;
  /// Scheduler ticks a crashed victim stays down before restarting.
  std::uint64_t restart_delay = 8;
};

/// Outcome of one crash/restart run.
struct CrashStats {
  std::uint64_t crashes = 0;   ///< crash events that actually fired
  std::uint64_t restarts = 0;  ///< victims recovered with fresh local state
  std::uint64_t steps = 0;     ///< shared-memory steps executed
  std::uint64_t crashed_down = 0;  ///< processes still crashed at the end
  /// Every process that was never crashed, or was restarted, finished its
  /// program — the wait-freedom obligation under this adversary.
  bool survivors_finished = false;
};

/// The crash/restart adversary: drives `sys` under a seeded random schedule
/// while killing processes mid-call per `plan` (and, optionally, restarting
/// them with fresh local state). Crashed processes are never scheduled while
/// down, so their pending ops stay poised forever — exactly a crashed
/// process of the paper's model, which may cover registers but never writes
/// again. Deterministic given (sys state, rng state, plan).
CrashStats run_crash_restart(ISystem& sys, util::Rng& rng,
                             const CrashPlan& plan, std::uint64_t max_steps);

/// Parameters of the deterministic jitter/stall driver (run_jittered).
struct JitterSpec {
  /// After each of its steps, a process stalls with probability
  /// 1/stall_period (seeded Bernoulli; must be >= 1; 1 = stall after every
  /// step).
  std::uint64_t stall_period = 8;
  /// A stall lasts [1, max_stall] scheduler ticks (uniform, seeded).
  std::uint64_t max_stall = 24;
};

/// Outcome of one jittered run.
struct JitterStats {
  std::uint64_t steps = 0;   ///< shared-memory steps executed
  std::uint64_t stalls = 0;  ///< stall windows injected
  std::uint64_t ticks = 0;   ///< scheduler ticks (>= steps; idle ticks stall)
};

/// The jitter adversary: a seeded random schedule where processes fall into
/// stall windows — ticks during which they are never scheduled — modeling
/// preemption/jitter. When every live process is stalled the tick clock
/// advances without a step (time passes, nobody runs). Stalls only reorder
/// steps, so any property that holds under every schedule is preserved;
/// deterministic given (sys state, rng state, spec).
JitterStats run_jittered(ISystem& sys, util::Rng& rng, const JitterSpec& spec,
                         std::uint64_t max_steps);

/// Builds sigma(C0): fresh system from `factory`, stepped through `schedule`.
std::unique_ptr<ISystem> replay(const SystemFactory& factory,
                                std::span<const int> schedule);

/// Throws stamped::invariant_error if any process of `sys` failed, with the
/// failure message. Call after driving a system to surface program bugs.
void check_no_failures(ISystem& sys);

}  // namespace stamped::runtime
