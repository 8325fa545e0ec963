// The version-clock double collect: the AADGMS scan of double_collect.hpp
// with per-register write-versions standing in for deep value comparison.
//
// Motivation (cf. Bezerra–Freitas–Kuznetsov, "Asynchronous Latency and Fast
// Atomic Snapshot", and the vector-clock timestamp systems of Haldar &
// Vitányi): the classic scan decides "did anything change between my two
// collects?" by comparing the full value vectors. For the register contents
// this library scans — Algorithm 4's TsRecord id-sequences, the bounded
// object's labels — that comparison is O(n·K) in the value width, and it sits
// inside the collect-dominated getTS hot path. Every register already carries
// a version clock (its write count, runtime::Versioned), so the scan can
// compare two O(n) integer vectors instead.
//
// Linearizability argument (same shape as the classic proof, minus the ABA
// caveat): every register's cell guarantees that two versioned reads
// returning equal versions bracket a write-free interval (monotone write
// counts in the simulator and inline cells; unique never-reinstalled nodes
// in the threaded record cells), so equal version vectors across two
// consecutive collects mean NO register was written between the first
// collect's read of register i and the second collect's read of register i,
// for every i. Each of those write-free intervals
// contains the boundary point between the two collects (reads happen in
// index order), so at that point the shared memory held exactly the returned
// view; the scan linearizes there. Note the strengthening: a value-comparing
// collect can be fooled by an A->B->A run of writes (it would return a view
// that was never in memory at a single point), while equal *versions* can
// never be forged. The version scan therefore retries in exactly the
// executions where the value scan would have been wrong, and behaves
// step-for-step identically whenever writes always change the register value
// — which Claim 6.1(b) guarantees for Algorithm 4 and the own-component tick
// guarantees for the bounded object's recycling writes.
//
// Debug builds assert the agreement with the value-comparing reference:
// whenever the version vectors match, the value vectors of the two collects
// must match as well.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/coro.hpp"
#include "runtime/value.hpp"
#include "snapshot/double_collect.hpp"
#include "util/assert.hpp"

namespace stamped::snapshot {

/// Repeated double collect over registers [0, count) comparing version
/// vectors. Each register access is one `versioned_read` — a single simulator
/// step, exactly like a plain read, so traces and step counts are unchanged
/// relative to double_collect_scan wherever writes always change values.
/// Ctx is a memory context (runtime::SimCtx or atomicmem::DirectCtx).
///
/// The two collects of the success case are batched into one buffer pass:
/// the scan allocates a single {values, versions} pair up front, and every
/// collect after the first compares versions register-by-register *as it
/// reads*, overwriting the buffers in place. When the previous collect's
/// version vector is already clean (no interim write — the common case on the
/// getTS hot path of sqrt_oneshot and bounded_longlived), the scan therefore
/// finishes inside that single fused pass: no per-collect vector allocations,
/// no whole-vector comparison, no value moves between collects. A dirty
/// register simply seeds the same buffers as the new previous collect. The
/// co_await sequence is identical to the unbatched loop, so schedules,
/// traces, collect counts and the blessed space baselines are bit-identical.
template <class Ctx>
runtime::SubTask<ScanResult<typename Ctx::Value>> versioned_double_collect_scan(
    Ctx& ctx, int count) {
  using V = typename Ctx::Value;
  ScanResult<V> result;
  result.view.resize(static_cast<std::size_t>(count));
  result.versions.resize(static_cast<std::size_t>(count));

  // Collect 1 seeds the buffers.
  for (int i = 0; i < count; ++i) {
    runtime::Versioned<V> vv = co_await ctx.versioned_read(i);
    result.view[static_cast<std::size_t>(i)] = std::move(vv.value);
    result.versions[static_cast<std::size_t>(i)] = vv.version;
  }
  result.collects = 1;

#ifndef NDEBUG
  // Agreement check with the value-comparing reference scan: equal versions
  // must imply equal values (versions bump on every write). Debug-only copy.
  std::vector<V> prev_vals;
#endif

  for (;;) {
    const std::uint64_t collect_start = ctx.steps_now();
#ifndef NDEBUG
    prev_vals = result.view;
#endif
    bool clean = true;
    for (int i = 0; i < count; ++i) {
      runtime::Versioned<V> vv = co_await ctx.versioned_read(i);
      std::uint64_t& version = result.versions[static_cast<std::size_t>(i)];
      if (vv.version != version) {
        clean = false;
        version = vv.version;
      }
      // Stored unconditionally: on a clean register the value is provably
      // unchanged, on a dirty one this read is the new previous collect.
      result.view[static_cast<std::size_t>(i)] = std::move(vv.value);
    }
    ++result.collects;
    if (clean) {
#ifndef NDEBUG
      STAMPED_ASSERT_MSG(result.view == prev_vals,
                         "version vectors matched but value vectors differ — "
                         "version clock out of sync with register contents");
#endif
      result.linearize_step = collect_start;
      co_return result;
    }
  }
}

}  // namespace stamped::snapshot
