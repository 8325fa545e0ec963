// Long-lived unbounded timestamps: the classic collect/max+1 construction.
//
// This is the library's long-lived comparator for the space-gap experiments.
// Each process owns one single-writer multi-reader register (n registers for
// n processes). getTS() collects all n registers, computes t = max + 1, writes
// t to its own register and returns t; compare(t1, t2) is t1 < t2.
//
// Correctness: if g1 (by p, returning t1) happens before g2 (by q), then q's
// collect reads p's register after p wrote t1, and register values never
// decrease (a process only writes max+1 of a collect that included its own
// register), so t2 >= t1 + 1 > t1.
//
// Substitution note (see docs/paper-map.md): the paper's Theta(n) comparator
// is the n-1 register algorithm of Ellen, Fatourou & Ruppert, whose
// construction is not given in this paper. The n-register max-scan
// preserves the Theta(n) shape that Theorem 1.1 (n/6 - 1 lower bound) makes
// asymptotically tight.
//
// Wait-free: every call takes exactly n + 1 steps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/timestamp.hpp"
#include "native/recorder.hpp"
#include "runtime/coro.hpp"
#include "runtime/system.hpp"

namespace stamped::core {

/// One getTS() by process `pid` in an n-process max-scan object; awaitable so
/// long-lived programs chain calls. Returns the timestamp. `Log` is any
/// recorder of CallRecord<int64_t> (a native::CallArena on either backend).
template <class Ctx, class Log>
runtime::SubTask<std::int64_t> maxscan_getts(Ctx& ctx, int pid, int n,
                                             int call_index, Log* log) {
  const std::uint64_t invoked = ctx.invocation_stamp();
  std::int64_t mx = 0;
  for (int i = 0; i < n; ++i) {
    mx = std::max(mx, co_await ctx.read(i));
  }
  const std::int64_t t = mx + 1;
  co_await ctx.write(pid, t);
  if (log != nullptr) {
    log->record({pid, call_index, t, invoked, ctx.stamp()});
  }
  ctx.note_call_complete();
  co_return t;
}

/// Long-lived program: process `pid` performs `num_calls` getTS calls.
template <class Ctx, class Log>
runtime::ProcessTask maxscan_program(Ctx& ctx, int pid, int n, int num_calls,
                                     Log* log) {
  for (int k = 0; k < num_calls; ++k) {
    co_await maxscan_getts(ctx, pid, n, k, log);
  }
}

/// Builds an n-process long-lived max-scan system that records no history,
/// where every process performs `calls_per_process` getTS calls. Only
/// perfbench's step probe still calls this and maxscan_program directly; the
/// family's engine (api::MaxscanEngine) builds every other max-scan system.
inline std::unique_ptr<runtime::System<std::int64_t>> make_maxscan_system(
    int n, int calls_per_process, std::nullptr_t /*log*/) {
  STAMPED_ASSERT(n >= 1 && calls_per_process >= 1);
  using Sys = runtime::System<std::int64_t>;
  std::vector<Sys::Program> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    programs.push_back([p, n, calls_per_process](Sys::Ctx& ctx) {
      return maxscan_program(
          ctx, p, n, calls_per_process,
          static_cast<native::CallArena<std::int64_t>*>(nullptr));
    });
  }
  return std::make_unique<Sys>(n, std::int64_t{0}, std::move(programs));
}

}  // namespace stamped::core
