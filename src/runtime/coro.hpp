// Coroutine machinery for simulated processes.
//
// Every process of the simulated asynchronous shared-memory system (see
// runtime/system.hpp) is a C++20 coroutine. The coroutine suspends at each
// shared-memory operation (read/write/swap); the scheduler decides which
// process's pending operation executes next. This realizes the paper's model
// exactly: a *configuration* is the tuple of process states (suspended
// coroutine frames) and register values, and a *step* is one register
// operation by one process. A process whose pending operation is a write to
// register r is "poised to write r", i.e. it covers r.
//
// Two task types are provided:
//  - ProcessTask: the top-level program of one process (returns nothing;
//    results are recorded as runtime::CallRecords in a native::CallArena).
//  - SubTask<T>: a nested coroutine (e.g. the double-collect scan) awaited by
//    a ProcessTask or another SubTask. Suspension inside a subtask suspends
//    the whole logical process; completion resumes the awaiter.
//
// Both promises derive from CachedFrame (runtime/frame_cache.hpp), so a
// frame freed by one call or one process serves the next of its size on
// that thread.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "runtime/frame_cache.hpp"
#include "util/assert.hpp"

namespace stamped::runtime {

/// Top-level coroutine for one simulated process. Lazily started: the system
/// resumes it for the first time when the process is first scheduled or
/// inspected, running it up to its first shared-memory operation.
class ProcessTask {
 public:
  struct promise_type : CachedFrame {
    std::exception_ptr exception;

    ProcessTask get_return_object() {
      return ProcessTask{Handle::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Keep the frame alive after completion so the system can inspect
    // done()/exception; the owning ProcessTask destroys it.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  ProcessTask() = default;
  explicit ProcessTask(Handle h) : handle_(h) {}

  ProcessTask(const ProcessTask&) = delete;
  ProcessTask& operator=(const ProcessTask&) = delete;

  ProcessTask(ProcessTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  ProcessTask& operator=(ProcessTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  ~ProcessTask() { destroy(); }

  [[nodiscard]] Handle handle() const { return handle_; }
  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }
  [[nodiscard]] std::exception_ptr exception() const {
    return handle_ ? handle_.promise().exception : nullptr;
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

/// Nested coroutine returning a value of type T. Awaiting a SubTask runs it
/// inline from the awaiter's await_suspend. A subtask that finishes without
/// suspending (every subtask on the native backend, whose awaiters are
/// immediately ready) returns there, and the awaiter continues without
/// suspending. A subtask that suspended at a shared-memory operation
/// suspends the entire process (the scheduler resumes the innermost frame)
/// and, when it completes, transfers back to the awaiter (symmetric
/// transfer, the simulator path). Either way the stack holds one frame per
/// nesting level, however many subtasks a process awaits in sequence.
template <class T>
class [[nodiscard]] SubTask {
  static_assert(!std::is_void_v<T>,
                "SubTask<void> is not needed by this library");

 public:
  struct promise_type : CachedFrame {
    std::optional<T> value;
    std::exception_ptr exception;
    /// The awaiter, set only once the subtask has suspended: a subtask
    /// finishing before that returns to the await_suspend that resumed it.
    std::coroutine_handle<> continuation;

    SubTask get_return_object() {
      return SubTask{Handle::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  SubTask() = default;
  explicit SubTask(Handle h) : handle_(h) {}

  SubTask(const SubTask&) = delete;
  SubTask& operator=(const SubTask&) = delete;
  SubTask(SubTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  SubTask& operator=(SubTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~SubTask() { destroy(); }

  // Awaiter interface: `T result = co_await some_subtask(...);`
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> cont) {
    STAMPED_ASSERT(handle_);
    handle_.resume();
    if (handle_.done()) return false;  // the awaiter continues at once
    handle_.promise().continuation = cont;
    return true;
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    STAMPED_ASSERT_MSG(p.value.has_value(),
                       "subtask finished without producing a value");
    return std::move(*p.value);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

}  // namespace stamped::runtime
