// Section 5: the simple one-shot timestamp object with ceil(n/2) registers.
//
// R[0 .. ceil(n/2)-1] is an array of multi-reader/2-writer registers holding
// values in {0,1,2}, all initialized to 0; register floor(p/2) is written by
// processes p and its partner. simple-getTS() by process p reads the
// registers in index order, increments its own register when it reaches it,
// and returns the sum of all values as its timestamp.
// simple-compare(t1,t2) is t1 < t2 (see core::compare for int64_t).
//
// Wait-free; each call takes exactly ceil(n/2) + 2 shared-memory steps
// (one extra read + one write at the process's own register).
#pragma once

#include <cstdint>

#include "core/timestamp.hpp"
#include "runtime/coro.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace stamped::core {

/// Number of registers the simple algorithm allocates for n processes.
[[nodiscard]] constexpr int simple_oneshot_registers(int n) {
  return static_cast<int>(util::ceil_div(n, 2));
}

/// The register index written by process p.
[[nodiscard]] constexpr int simple_own_register(int pid) { return pid / 2; }

/// One simple-getTS() call by process `pid` in an n-process system
/// (Algorithm 2). Appends the returned integer timestamp to `log` if non-null
/// (`Log` is native::CallArena). `call_index` is the caller's k (always 0
/// under the one-shot discipline; the sharded service reuses the algorithm
/// per shard and records the client's global k).
template <class Ctx, class Log>
runtime::SubTask<std::int64_t> simple_getts(Ctx& ctx, int pid, int n,
                                            int call_index, Log* log) {
  const std::uint64_t invoked = ctx.invocation_stamp();
  const int m = simple_oneshot_registers(n);
  const int own = simple_own_register(pid);
  std::int64_t sum = 0;
  for (int i = 0; i < m; ++i) {
    if (i == own) {
      // R[i] := R[i] + 1 — a read followed by a write in the register model.
      const std::int64_t v = co_await ctx.read(i);
      STAMPED_ASSERT_MSG(v >= 0 && v <= 1,
                         "one-shot register out of range before write: " << v);
      co_await ctx.write(i, v + 1);
    }
    const std::int64_t observed = co_await ctx.read(i);
    STAMPED_ASSERT_MSG(observed >= 0 && observed <= 2,
                       "register value out of {0,1,2}: " << observed);
    sum += observed;
  }
  if (log != nullptr) {
    log->record({pid, call_index, sum, invoked, ctx.stamp()});
  }
  ctx.note_call_complete();
  co_return sum;
}

}  // namespace stamped::core
