// Type-erased view of a simulated system.
//
// Schedulers and the lower-bound adversaries do not care about the register
// value type; they need only process/step control and covering information
// (which register, if any, each process is poised to write). ISystem provides
// exactly that facade over System<V>.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace stamped::runtime {

/// How much per-step bookkeeping a system retains.
///
/// kFull is the correctness-first default: every step is appended to the
/// typed trace, the executed schedule, the step-info log and the per-process
/// view strings, and the observer hook fires. kCountsOnly is the hot-loop
/// mode: only the aggregate counters survive (steps, per-process steps/calls,
/// per-register write counts/versions), so benches and sweeps that only
/// measure skip all per-step string building and trace retention. A
/// kCountsOnly system cannot be used for replay cloning (its executed
/// schedule stays empty), indistinguishability arguments (views stay empty)
/// or observer-based invariant checking — the mode setter rejects systems
/// with an observer installed.
enum class RecordingMode : std::uint8_t { kFull, kCountsOnly };

/// The kinds of atomic shared-memory operations a process can be poised to
/// perform. kSwap models a historyless swap object (Section 7 of the paper);
/// kFetchAdd a fetch&add primitive (the non-register throughput baseline);
/// the register algorithms use only kRead and kWrite.
enum class OpKind : std::uint8_t { kNone, kRead, kWrite, kSwap, kFetchAdd };

[[nodiscard]] constexpr const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kNone: return "none";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kSwap: return "swap";
    case OpKind::kFetchAdd: return "fetchadd";
  }
  return "?";
}

/// True if an operation of this kind modifies the register it targets.
[[nodiscard]] constexpr bool op_kind_writes(OpKind k) {
  return k == OpKind::kWrite || k == OpKind::kSwap || k == OpKind::kFetchAdd;
}

/// The operation a process will perform on its next step.
struct PendingOp {
  OpKind kind = OpKind::kNone;
  int reg = -1;

  /// True if executing this op would modify register `r` (paper: the process
  /// *covers* r).
  [[nodiscard]] bool covers(int r) const {
    return op_kind_writes(kind) && reg == r;
  }
  [[nodiscard]] bool is_write() const { return op_kind_writes(kind); }
};

/// Type-erased summary of one executed step (pid, op kind, register). The
/// full typed trace lives in System<V>; this summary is what the covering
/// adversaries need (e.g. "did q write outside R during this suffix?").
struct StepInfo {
  int pid = -1;
  OpKind kind = OpKind::kNone;
  int reg = -1;

  [[nodiscard]] bool is_write() const { return op_kind_writes(kind); }
};

/// Abstract simulated system: n processes, m registers, step-level control.
///
/// Note on const-ness: inspecting a process that has never run requires
/// resuming its coroutine up to the first shared-memory operation. That
/// executes only process-local code, which is invisible in the shared-memory
/// model (a configuration is defined by register values and the processes'
/// next operations), so inspection methods are non-const but logically pure.
class ISystem {
 public:
  virtual ~ISystem() = default;

  [[nodiscard]] virtual int num_processes() const = 0;
  [[nodiscard]] virtual int num_registers() const = 0;

  /// True once the process's program has returned.
  virtual bool finished(int pid) = 0;
  /// True if the process's program exited with an exception.
  virtual bool failed(int pid) = 0;
  /// Description of the failure, empty if none.
  [[nodiscard]] virtual std::string failure_message(int pid) const = 0;

  /// The process's next shared-memory operation ({kNone} if finished).
  virtual PendingOp pending(int pid) = 0;

  /// Executes one step (the pending op) of process pid. pid must not be
  /// finished. Records the step in the trace and executed schedule.
  virtual void step(int pid) = 0;

  [[nodiscard]] virtual std::uint64_t steps_taken() const = 0;
  [[nodiscard]] virtual std::uint64_t steps_taken_by(int pid) const = 0;

  /// Paper: a process is idle while it has taken no steps.
  [[nodiscard]] bool idle(int pid) const { return steps_taken_by(pid) == 0; }

  /// Number of completed method calls by pid / by all processes (programs
  /// report completion via SimCtx::note_call_complete).
  [[nodiscard]] virtual std::uint64_t calls_completed(int pid) const = 0;
  [[nodiscard]] virtual std::uint64_t calls_completed_total() const = 0;

  /// The schedule executed so far (one pid per step) — the paper's sigma.
  [[nodiscard]] virtual const std::vector<int>& executed_schedule() const = 0;

  /// Type-erased log of all executed steps, parallel to executed_schedule().
  [[nodiscard]] virtual const std::vector<StepInfo>& step_infos() const = 0;

  /// Printable value of register `reg` (injective on stored values).
  [[nodiscard]] virtual std::string register_repr(int reg) const = 0;
  /// True if register `reg` has been written at least once.
  [[nodiscard]] virtual bool register_written(int reg) const = 0;
  /// Number of writes (incl. swaps) applied to register `reg`: also the
  /// register's version clock, the version half of the `{value, version}`
  /// pairs that `SimCtx::versioned_read` returns. Strictly monotone per
  /// register; equal versions bracket a write-free interval (the guarantee
  /// the version-clock scan relies on — see runtime::Versioned for how the
  /// threaded backend's cells meet it).
  [[nodiscard]] virtual std::uint64_t writes_to(int reg) const = 0;
  /// Number of distinct registers that have been written so far. This is the
  /// "registers used" metric reported by the space benchmarks.
  [[nodiscard]] virtual int registers_written() const = 0;

  /// Crash recovery: destroys process pid's local state — its coroutine
  /// frame, including any pending-but-unexecuted operation — and restarts
  /// its program from the beginning. Shared memory (registers, write
  /// counts), the global trace and the process's step/call counters all
  /// survive: a crash loses exactly the process-local state, matching the
  /// model's notion that registers are the only persistent objects.
  virtual void restart_process(int pid) = 0;

  /// Recording mode (see RecordingMode).
  [[nodiscard]] virtual RecordingMode recording_mode() const = 0;

  /// Serialized local knowledge of process pid: the sequence of operations it
  /// has performed with the values it observed. Two executions are
  /// indistinguishable to pid iff these views are equal (processes are
  /// deterministic functions of their observations).
  [[nodiscard]] virtual std::string process_view(int pid) const = 0;

  /// Bitmask of unfinished processes (bit p set iff process p is live).
  /// Requires n <= 64; the explorer's sleep sets and persistent sets are pid
  /// bitmasks of the same width, so the whole candidate computation is a few
  /// word operations per node instead of n virtual calls. May start
  /// never-inspected coroutines (see the class comment on const-ness).
  [[nodiscard]] virtual std::uint64_t unfinished_mask() = 0;

  /// The register footprint of every process's pending op in one call:
  /// fills `out[p] = pending(p)` for all p ({kNone} for finished processes).
  /// This is the cheap batched query the explorer's persistent-set
  /// computation runs at every branching node (one virtual call per node
  /// instead of n).
  virtual void pending_all(std::vector<PendingOp>& out) = 0;

  // ---- conveniences built on the primitives -------------------------------

  /// True if every process has finished.
  bool all_finished() {
    for (int p = 0; p < num_processes(); ++p) {
      if (!finished(p)) return false;
    }
    return true;
  }
};

}  // namespace stamped::runtime
