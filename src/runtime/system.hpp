// The simulated asynchronous shared-memory system.
//
// System<V> owns m atomic registers of value type V and n processes, each a
// coroutine (runtime/coro.hpp). The system is driven one step at a time by a
// scheduler; each step executes exactly one shared-memory operation of one
// process, matching the computational model of the paper (Section 2):
//
//   configuration C = (s_1..s_n, v_1..v_m)   — coroutine frames + registers
//   execution (C; sigma)                     — steps in schedule order
//   covering                                 — pending(p).covers(r)
//
// Determinism & replay: the processes of this library are deterministic, so a
// System constructed from the same programs and stepped through the same
// schedule reaches the same configuration. The lower-bound adversaries use
// this to "clone" configurations by replay (see adversary/).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/coro.hpp"
#include "runtime/isystem.hpp"
#include "runtime/value.hpp"
#include "util/assert.hpp"

namespace stamped::runtime {

/// One executed step, recorded in the system trace.
template <RegisterValue V>
struct TraceEntry {
  std::uint64_t index = 0;  ///< 0-based global step number
  int pid = -1;
  OpKind kind = OpKind::kNone;
  int reg = -1;
  V written{};   ///< value stored (write/swap)
  V observed{};  ///< value returned to the process (read/swap)
};

template <RegisterValue V>
class System;

/// Per-process handle through which programs access shared memory. Passed by
/// reference to the process coroutine; stable for the system's lifetime.
template <RegisterValue V>
class SimCtx {
 public:
  using Value = V;

  SimCtx(const SimCtx&) = delete;
  SimCtx& operator=(const SimCtx&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] int num_registers() const;
  [[nodiscard]] int num_processes() const;

  struct ReadAwaiter {
    System<V>* sys;
    int pid;
    int reg;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sys->post_op(pid, OpKind::kRead, reg, V{}, h);
    }
    V await_resume() { return sys->take_result(pid); }
  };

  struct WriteAwaiter {
    System<V>* sys;
    int pid;
    int reg;
    V value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sys->post_op(pid, OpKind::kWrite, reg, std::move(value), h);
    }
    void await_resume() {}
  };

  struct SwapAwaiter {
    System<V>* sys;
    int pid;
    int reg;
    V value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sys->post_op(pid, OpKind::kSwap, reg, std::move(value), h);
    }
    V await_resume() { return sys->take_result(pid); }
  };

  struct FetchAddAwaiter {
    System<V>* sys;
    int pid;
    int reg;
    V addend;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sys->post_op(pid, OpKind::kFetchAdd, reg, std::move(addend), h);
    }
    V await_resume() { return sys->take_result(pid); }
  };

  struct VersionedReadAwaiter {
    System<V>* sys;
    int pid;
    int reg;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sys->post_op(pid, OpKind::kRead, reg, V{}, h);
    }
    Versioned<V> await_resume() {
      return {sys->take_result(pid), sys->take_result_version(pid)};
    }
  };

  /// Atomic read of register `reg` (one step).
  [[nodiscard]] ReadAwaiter read(int reg) { return {sys_, pid_, reg}; }
  /// Atomic read of register `reg` paired with its version clock (one step,
  /// same trace footprint as read()). The version is the number of writes
  /// applied to the register before this read; see runtime::Versioned.
  [[nodiscard]] VersionedReadAwaiter versioned_read(int reg) {
    return {sys_, pid_, reg};
  }
  /// Atomic write to register `reg` (one step).
  [[nodiscard]] WriteAwaiter write(int reg, V value) {
    return {sys_, pid_, reg, std::move(value)};
  }
  /// Atomic swap on register `reg` (one step); returns the old value.
  [[nodiscard]] SwapAwaiter swap(int reg, V value) {
    return {sys_, pid_, reg, std::move(value)};
  }
  /// Atomic fetch&add on register `reg` (one step); returns the old value.
  /// Only meaningful for arithmetic V (non-register baseline objects).
  [[nodiscard]] FetchAddAwaiter fetch_add(int reg, V addend)
    requires std::is_arithmetic_v<V>
  {
    return {sys_, pid_, reg, std::move(addend)};
  }

  /// Monotone event counter; used to timestamp method invocations/responses
  /// for the happens-before checker. Strictly increases across all events.
  std::uint64_t stamp();
  /// Invocation stamp of a getTS call: a plain stamp(). A non-first
  /// invocation is already stamped inside the step that completed the
  /// process's previous call, right after its response (DirectCtx takes
  /// the half-step there instead of a fresh draw).
  std::uint64_t invocation_stamp() { return stamp(); }

  /// Global steps executed so far (each shared-memory op is one step).
  [[nodiscard]] std::uint64_t steps_now() const;

  /// Steps executed by this process so far (wait-freedom accounting).
  [[nodiscard]] std::uint64_t my_steps() const;

  /// Programs call this when a method call (e.g. getTS) completes; solo
  /// schedulers use the count to detect completion.
  void note_call_complete();

 private:
  friend class System<V>;
  SimCtx(System<V>* sys, int pid) : sys_(sys), pid_(pid) {}
  System<V>* sys_;
  int pid_;
};

/// The simulated machine. See file comment.
template <RegisterValue V>
class System final : public ISystem {
 public:
  using Ctx = SimCtx<V>;
  using Program = std::function<ProcessTask(Ctx&)>;
  using Observer = std::function<void(const System&, const TraceEntry<V>&)>;

  /// Constructs a system with `num_registers` registers all holding
  /// `initial`, and one process per entry of `programs`. `mode` selects how
  /// much per-step bookkeeping is retained (see runtime::RecordingMode).
  System(int num_registers, V initial, std::vector<Program> programs,
         RecordingMode mode = RecordingMode::kFull)
      : initial_(initial),
        registers_(static_cast<std::size_t>(num_registers), initial),
        write_counts_(static_cast<std::size_t>(num_registers), 0),
        programs_(std::move(programs)),
        recording_(mode) {
    STAMPED_ASSERT(num_registers > 0);
    STAMPED_ASSERT(!programs_.empty());
    const int n = static_cast<int>(programs_.size());
    slots_.resize(static_cast<std::size_t>(n));
    views_.resize(static_cast<std::size_t>(n));
    steps_by_pid_.resize(static_cast<std::size_t>(n), 0);
    calls_by_pid_.resize(static_cast<std::size_t>(n), 0);
    ctxs_.reserve(static_cast<std::size_t>(n));
    tasks_.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      ctxs_.push_back(std::unique_ptr<Ctx>(new Ctx(this, p)));
      tasks_.push_back(programs_[static_cast<std::size_t>(p)](*ctxs_.back()));
      STAMPED_ASSERT(tasks_.back().valid());
    }
  }

  // ---- ISystem ------------------------------------------------------------

  [[nodiscard]] int num_processes() const override {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] int num_registers() const override {
    return static_cast<int>(registers_.size());
  }

  bool finished(int pid) override {
    ensure_started(pid);
    return tasks_[idx(pid)].done();
  }

  bool failed(int pid) override {
    ensure_started(pid);
    return tasks_[idx(pid)].done() &&
           tasks_[idx(pid)].exception() != nullptr;
  }

  [[nodiscard]] std::string failure_message(int pid) const override {
    const auto& task = tasks_[idx(pid)];
    if (!task.done() || !task.exception()) return {};
    try {
      std::rethrow_exception(task.exception());
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  PendingOp pending(int pid) override {
    ensure_started(pid);
    if (tasks_[idx(pid)].done()) return {};
    const Slot& s = slots_[idx(pid)];
    return {s.kind, s.reg};
  }

  void step(int pid) override {
    ensure_started(pid);
    STAMPED_ASSERT_MSG(!tasks_[idx(pid)].done(),
                       "step() on finished process " << pid);
    Slot& s = slots_[idx(pid)];
    STAMPED_ASSERT_MSG(s.kind != OpKind::kNone,
                       "process " << pid << " has no pending op");

    // The version of the value a read/swap observes: writes applied so far
    // (a write/swap/fetch&add bumps the count after this line).
    s.result_version = write_counts_[static_cast<std::size_t>(s.reg)];

    if (recording_ == RecordingMode::kCountsOnly) {
      step_counts_only(pid, s);
      return;
    }

    TraceEntry<V> entry;
    entry.index = trace_.size();
    entry.pid = pid;
    entry.kind = s.kind;
    entry.reg = s.reg;

    apply_op(s, &entry);

    switch (entry.kind) {
      case OpKind::kRead:
        append_view(pid, "R[" + std::to_string(entry.reg) +
                             "]=" + value_repr(entry.observed));
        break;
      case OpKind::kWrite:
        append_view(pid, "W[" + std::to_string(entry.reg) +
                             "]:=" + value_repr(entry.written));
        break;
      case OpKind::kSwap:
        append_view(pid, "X[" + std::to_string(entry.reg) + "]:=" +
                             value_repr(entry.written) + "/" +
                             value_repr(entry.observed));
        break;
      case OpKind::kFetchAdd:
        // apply_op leaves the addend in s.to_write for this view string.
        append_view(pid, "F[" + std::to_string(entry.reg) + "]+=" +
                             value_repr(s.to_write) + "->" +
                             value_repr(entry.written));
        break;
      case OpKind::kNone:
        STAMPED_ASSERT(false);
    }

    s.kind = OpKind::kNone;
    s.reg = -1;
    ++steps_;
    ++steps_by_pid_[idx(pid)];
    ++event_counter_;
    executed_schedule_.push_back(pid);
    step_infos_.push_back({pid, entry.kind, entry.reg});
    trace_.push_back(entry);

    auto h = std::exchange(s.resume_point, {});
    STAMPED_ASSERT(h);
    h.resume();

    if (observer_) observer_(*this, trace_.back());
  }

  [[nodiscard]] std::uint64_t steps_taken() const override { return steps_; }
  [[nodiscard]] std::uint64_t steps_taken_by(int pid) const override {
    STAMPED_ASSERT(pid >= 0 && idx(pid) < steps_by_pid_.size());
    return steps_by_pid_[idx(pid)];
  }

  [[nodiscard]] std::uint64_t calls_completed(int pid) const override {
    STAMPED_ASSERT(pid >= 0 && idx(pid) < calls_by_pid_.size());
    return calls_by_pid_[idx(pid)];
  }
  [[nodiscard]] std::uint64_t calls_completed_total() const override {
    return calls_total_;
  }

  [[nodiscard]] const std::vector<int>& executed_schedule() const override {
    return executed_schedule_;
  }

  [[nodiscard]] const std::vector<StepInfo>& step_infos() const override {
    return step_infos_;
  }

  [[nodiscard]] std::string register_repr(int reg) const override {
    return value_repr(registers_[idx(reg)]);
  }
  [[nodiscard]] bool register_written(int reg) const override {
    return write_counts_[idx(reg)] > 0;
  }
  [[nodiscard]] std::uint64_t writes_to(int reg) const override {
    return write_counts_[idx(reg)];
  }
  /// O(1): maintained incrementally by note_write().
  [[nodiscard]] int registers_written() const override {
    return distinct_registers_written_;
  }

  /// O(1) + copy: the view is streamed into a per-process string as steps
  /// execute (it used to be rebuilt from a vector of items on every call).
  /// Empty in kCountsOnly mode.
  [[nodiscard]] std::string process_view(int pid) const override {
    return views_[idx(pid)];
  }

  /// Devirtualized liveness scan: one virtual call per explorer node instead
  /// of n `finished()` calls (the explorer sits on this at every node).
  [[nodiscard]] std::uint64_t unfinished_mask() override {
    const int n = num_processes();
    STAMPED_ASSERT_MSG(n <= 64, "unfinished_mask supports at most 64 "
                                "processes, got " << n);
    std::uint64_t mask = 0;
    for (int p = 0; p < n; ++p) {
      ensure_started(p);
      if (!tasks_[idx(p)].done()) mask |= std::uint64_t{1} << p;
    }
    return mask;
  }

  /// Batched pending-op footprints by direct slot reads (persistent-set
  /// computation; see ISystem::pending_all).
  void pending_all(std::vector<PendingOp>& out) override {
    const int n = num_processes();
    out.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      ensure_started(p);
      if (tasks_[idx(p)].done()) {
        out[idx(p)] = {};
      } else {
        const Slot& s = slots_[idx(p)];
        out[idx(p)] = {s.kind, s.reg};
      }
    }
  }

  // ---- crash recovery -----------------------------------------------------

  /// See ISystem::restart_process. The old coroutine frame is destroyed
  /// (running the destructors of its locals, which tears down any nested
  /// SubTask frames), so a pending-but-unexecuted op vanishes with the local
  /// state; a fresh frame is created from the stored program. The process's
  /// step and completed-call counters persist — completed calls completed,
  /// and wait-freedom accounting charges the process for the steps its
  /// crashed incarnation took.
  void restart_process(int pid) override {
    STAMPED_ASSERT_MSG(pid >= 0 && pid < num_processes(), "bad pid " << pid);
    Slot& s = slots_[idx(pid)];
    // The slot's resume point targets the frame being destroyed; drop the
    // handle without resuming or destroying it separately.
    s.kind = OpKind::kNone;
    s.reg = -1;
    s.to_write = V{};
    s.result = V{};
    s.result_version = 0;
    s.resume_point = {};
    tasks_[idx(pid)] = programs_[idx(pid)](*ctxs_[idx(pid)]);
    STAMPED_ASSERT(tasks_[idx(pid)].valid());
    if (started_.size() > idx(pid)) started_[idx(pid)] = false;
    if (recording_ == RecordingMode::kFull) append_view(pid, "RESTART");
  }

  // ---- recording mode -----------------------------------------------------

  [[nodiscard]] RecordingMode recording_mode() const override {
    return recording_;
  }

  /// Switches the recording mode. Only legal on a pristine system (no steps
  /// executed yet), and kCountsOnly refuses systems with an observer
  /// installed — silently skipping invariant checks would be worse than
  /// failing loudly here.
  void set_recording_mode(RecordingMode mode) {
    STAMPED_ASSERT_MSG(steps_ == 0,
                       "recording mode must be set before the first step");
    STAMPED_ASSERT_MSG(mode == RecordingMode::kFull || observer_ == nullptr,
                       "kCountsOnly would skip the installed observer");
    recording_ = mode;
  }

  // ---- typed access (tests, invariant checkers) ---------------------------

  /// Current value of register `reg`.
  [[nodiscard]] const V& reg_value(int reg) const {
    return registers_[idx(reg)];
  }

  /// Full step trace.
  [[nodiscard]] const std::vector<TraceEntry<V>>& trace() const {
    return trace_;
  }

  /// Installs a hook invoked after every step (invariant checking). Rejected
  /// in kCountsOnly mode, which skips observer dispatch.
  void set_observer(Observer obs) {
    STAMPED_ASSERT_MSG(recording_ == RecordingMode::kFull,
                       "observers require RecordingMode::kFull");
    observer_ = std::move(obs);
  }

  // ---- used by SimCtx ------------------------------------------------------

  void post_op(int pid, OpKind kind, int reg, V value,
               std::coroutine_handle<> resume_point) {
    STAMPED_ASSERT_MSG(reg >= 0 && reg < num_registers(),
                       "process " << pid << " accessed register " << reg
                                  << " outside [0," << num_registers() << ")");
    Slot& s = slots_[idx(pid)];
    STAMPED_ASSERT(s.kind == OpKind::kNone);
    s.kind = kind;
    s.reg = reg;
    s.to_write = std::move(value);
    s.resume_point = resume_point;
  }

  V take_result(int pid) { return std::move(slots_[idx(pid)].result); }

  [[nodiscard]] std::uint64_t take_result_version(int pid) const {
    return slots_[idx(pid)].result_version;
  }

  std::uint64_t bump_event_counter() { return ++event_counter_; }

  void note_call_complete(int pid) {
    ++calls_by_pid_[idx(pid)];
    ++calls_total_;
    if (recording_ == RecordingMode::kFull) {
      append_view(pid, "done#" + std::to_string(calls_by_pid_[idx(pid)]));
    }
  }

 private:
  struct Slot {
    OpKind kind = OpKind::kNone;
    int reg = -1;
    V to_write{};
    V result{};
    std::uint64_t result_version = 0;
    std::coroutine_handle<> resume_point{};
  };

  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  void ensure_started(int pid) {
    STAMPED_ASSERT_MSG(pid >= 0 && pid < num_processes(),
                       "bad pid " << pid);
    if (started_.size() <= idx(pid)) started_.resize(tasks_.size(), false);
    if (!started_[idx(pid)]) {
      started_[idx(pid)] = true;
      // Runs process-local code up to the first shared-memory operation (or
      // completion). This consumes no model step.
      tasks_[idx(pid)].handle().resume();
    }
  }

  /// The single home of the shared-memory op semantics, shared by both
  /// recording modes so they cannot drift: applies the pending op of `s` to
  /// its register cell and fills s.result. When `entry` is non-null (kFull)
  /// the observed/written values are also recorded for the trace. For
  /// kFetchAdd, s.to_write (the addend) is left in place — the kFull caller
  /// prints it in the view string.
  void apply_op(Slot& s, TraceEntry<V>* entry) {
    V& cell = registers_[static_cast<std::size_t>(s.reg)];
    switch (s.kind) {
      case OpKind::kRead:
        s.result = cell;
        if (entry != nullptr) entry->observed = s.result;
        break;
      case OpKind::kWrite:
        if (entry != nullptr) entry->written = s.to_write;
        cell = std::move(s.to_write);
        note_write(s.reg);
        break;
      case OpKind::kSwap: {
        V observed = std::move(cell);
        cell = std::move(s.to_write);
        if (entry != nullptr) {
          entry->observed = observed;
          entry->written = cell;
        }
        s.result = std::move(observed);
        note_write(s.reg);
        break;
      }
      case OpKind::kFetchAdd:
        if constexpr (std::is_arithmetic_v<V>) {
          s.result = cell;
          cell = static_cast<V>(cell + s.to_write);
          if (entry != nullptr) {
            entry->observed = s.result;
            entry->written = cell;
          }
          note_write(s.reg);
        } else {
          STAMPED_ASSERT_MSG(false,
                             "fetch_add on non-arithmetic register type");
        }
        break;
      case OpKind::kNone:
        STAMPED_ASSERT(false);
    }
  }

  /// The kCountsOnly hot path: performs the register operation and bumps the
  /// aggregate counters, but builds no strings, retains no trace entries and
  /// dispatches no observer. ~an order of magnitude cheaper per step than the
  /// kFull path (see bench/bench_t8_runtime.cpp).
  void step_counts_only(int pid, Slot& s) {
    apply_op(s, nullptr);

    s.kind = OpKind::kNone;
    s.reg = -1;
    ++steps_;
    ++steps_by_pid_[idx(pid)];
    ++event_counter_;

    auto h = std::exchange(s.resume_point, {});
    STAMPED_ASSERT(h);
    h.resume();
  }

  void append_view(int pid, std::string item) {
    std::string& view = views_[idx(pid)];
    view += item;
    view += ';';
  }

  void note_write(int reg) {
    if (write_counts_[idx(reg)]++ == 0) ++distinct_registers_written_;
  }

  V initial_;
  std::vector<V> registers_;
  std::vector<std::uint64_t> write_counts_;
  /// Retained past construction so restart_process can recreate a crashed
  /// process's coroutine (programs must be re-invocable).
  std::vector<Program> programs_;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  std::vector<ProcessTask> tasks_;
  std::vector<Slot> slots_;
  std::vector<bool> started_;
  /// One streamed view string per process (kFull only; see process_view()).
  std::vector<std::string> views_;
  std::vector<TraceEntry<V>> trace_;
  std::vector<int> executed_schedule_;
  std::vector<StepInfo> step_infos_;
  /// Flat pre-sized per-pid counters (they were unordered_maps; the lookups
  /// sat on the step hot path).
  std::vector<std::uint64_t> steps_by_pid_;
  std::vector<std::uint64_t> calls_by_pid_;
  std::uint64_t steps_ = 0;
  std::uint64_t event_counter_ = 0;
  std::uint64_t calls_total_ = 0;
  int distinct_registers_written_ = 0;
  RecordingMode recording_ = RecordingMode::kFull;
  Observer observer_;
};

template <RegisterValue V>
int SimCtx<V>::num_registers() const {
  return sys_->num_registers();
}

template <RegisterValue V>
int SimCtx<V>::num_processes() const {
  return sys_->num_processes();
}

template <RegisterValue V>
std::uint64_t SimCtx<V>::stamp() {
  return sys_->bump_event_counter();
}

template <RegisterValue V>
std::uint64_t SimCtx<V>::steps_now() const {
  return sys_->steps_taken();
}

template <RegisterValue V>
std::uint64_t SimCtx<V>::my_steps() const {
  return sys_->steps_taken_by(pid_);
}

template <RegisterValue V>
void SimCtx<V>::note_call_complete() {
  sys_->note_call_complete(pid_);
}

}  // namespace stamped::runtime
