// The obstruction-free scan of Afek, Attiya, Dolev, Gafni, Merritt & Shavit
// (J.ACM 1993), as used by Algorithm 4 (line 13) of the paper.
//
// A *collect* reads registers R[0..count-1] in order; the scan repeats
// collects until two consecutive collects return identical views
// (a successful double collect). The scan linearizes at any point between the
// last two collects. It is obstruction-free in general, but wait-free in the
// context of Algorithm 4 because every getTS performs boundedly many writes
// and writes to a register always change its value (paper Claim 6.1(b)), so
// only finitely many collect repetitions can be forced.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/coro.hpp"

namespace stamped::snapshot {

/// Result of a scan: the consistent view plus accounting data.
template <class V>
struct ScanResult {
  std::vector<V> view;
  /// Number of collects performed (>= 2).
  std::uint64_t collects = 0;
  /// ctx.steps_now() at the start of the final collect. The scan can be
  /// linearized at any point between the last two collects; on the
  /// simulator, where steps_now() is the global step count, this value is a
  /// canonical choice used by the phase analysis of Algorithm 4. On the
  /// native backend steps_now() counts stamped events only (register ops do
  /// not tick the clock), so the value orders nothing there.
  std::uint64_t linearize_step = 0;
  /// Per-register write-versions of the returned view. Filled by the
  /// version-clock scan (snapshot/versioned_collect.hpp); empty for the
  /// value-comparing scan below.
  std::vector<std::uint64_t> versions;
};

/// Repeated double collect over registers [0, count). Each register read is
/// one simulator step. Ctx is a memory context (runtime::SimCtx or
/// atomicmem::DirectCtx).
template <class Ctx>
runtime::SubTask<ScanResult<typename Ctx::Value>> double_collect_scan(
    Ctx& ctx, int count) {
  using V = typename Ctx::Value;
  std::vector<V> prev;
  bool have_prev = false;
  std::uint64_t collects = 0;
  for (;;) {
    const std::uint64_t collect_start = ctx.steps_now();
    std::vector<V> cur;
    cur.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      cur.push_back(co_await ctx.read(i));
    }
    ++collects;
    if (have_prev && cur == prev) {
      ScanResult<V> result;
      result.view = std::move(cur);
      result.collects = collects;
      result.linearize_step = collect_start;
      co_return result;
    }
    prev = std::move(cur);
    have_prev = true;
  }
}

}  // namespace stamped::snapshot
