// Throughput baseline: a timestamp object built from a single fetch&add
// primitive instead of read/write registers.
//
// This is NOT a register implementation — the paper's model allows only
// atomic read/write — so it is outside the lower bounds entirely. The
// throughput benchmark (T5) uses it to show what a stronger primitive buys
// and to put the register algorithms' costs in context.
//
// Two forms are provided: FetchAddTimestamp wraps a bare std::atomic for
// hot-loop timing, and fetchadd_getts runs the same object as one getTS call
// of a simulated (or DirectCtx) process via the runtime's kFetchAdd op, so
// the family is enumerable through api::registry() next to the register
// algorithms.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/coro.hpp"

namespace stamped::core {

/// Wait-free long-lived timestamps from one fetch&add word.
class FetchAddTimestamp {
 public:
  /// Returns a strictly increasing timestamp (per object).
  [[nodiscard]] std::int64_t getts() {
    return counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// compare(t1, t2) — as everywhere, plain <.
  [[nodiscard]] static bool compare(std::int64_t a, std::int64_t b) {
    return a < b;
  }

 private:
  std::atomic<std::int64_t> counter_{0};
};

/// One getTS() via the shared counter in register 0: a single fetch&add step.
/// The returned timestamp old+1 is strictly increasing across all calls, so
/// the timestamp property holds unconditionally.
template <class Ctx, class Log>
runtime::SubTask<std::int64_t> fetchadd_getts(Ctx& ctx, int pid,
                                              int call_index, Log* log) {
  const std::uint64_t invoked = ctx.invocation_stamp();
  const std::int64_t t = (co_await ctx.fetch_add(0, std::int64_t{1})) + 1;
  if (log != nullptr) {
    log->record({pid, call_index, t, invoked, ctx.stamp()});
  }
  ctx.note_call_complete();
  co_return t;
}

}  // namespace stamped::core
