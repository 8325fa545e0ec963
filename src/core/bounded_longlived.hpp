// Long-lived *bounded-universe* timestamps in the style of Haldar & Vitányi,
// "Bounded Concurrent Timestamp Systems Using Vector Clocks" (see PAPERS.md).
//
// Every object of the source paper draws timestamps from an unbounded
// universe (integers, pairs, id-sequences). This object is the first family
// outside that paper: its labels live in the *finite* universe Z_K^n and
// exhausted labels are recycled cyclically (value K-1 wraps to 0).
//
// Construction. Each process p owns one SWMR register holding a BoundedLabel
// (a value in Z_K plus a small wrap-detection guard). getTS() by p:
//   1. double-collect scan of all n registers (snapshot/double_collect.hpp,
//      the collect primitive suggested by Gafni's "Snapshot for Time"),
//   2. tick the own component: val' = (val + 1) mod K (the recycling rule),
//   3. write the new label to the own register,
//   4. return the scanned vector with the own component replaced — a
//      vector-clock-style timestamp (v_0, .., v_{n-1}) in Z_K^n.
//
// compare(a, b) is cyclic dominance within the window W = (K-1)/2:
//   a < b  iff  for all i: (b_i - a_i) mod K in [0, W], and some i in [1, W].
// Because 2W < K, this relation is irreflexive and asymmetric on ALL of
// Z_K^n, and restricted to any window-coherent set (labels pairwise within
// the window — the HV condition "labels simultaneously in circulation") it is
// transitive as well, i.e. a strict partial order: if (b-a) and (c-b) land in
// [0, W] componentwise, their sum is < K, so no wrap-around can reorder a
// window-coherent chain. A genuinely static strict order over a finite
// universe cannot order unboundedly long happens-before chains — that is
// exactly why the source paper's model uses unbounded universes — so the
// bounded object's guarantee is conditioned on the recycling window:
//
//   Timestamp property (windowed): if g1 -> g2 and between the two scans no
//   process ticked its component more than W times, then compare(t1, t2) and
//   !compare(t2, t1).
//
// Proof sketch: g2's scan reads each register i after g1's scan did, and
// register i only changes by +1 mod K per write by process i; with d_i <= W
// interim ticks the componentwise cyclic differences all land in [0, W], and
// the own component of g2's caller lands in [1, W]. Executions whose total
// per-process call count is at most W (modulus K >= 2*calls+1, see
// bounded_modulus_for) satisfy the property unconditionally — the regime the
// exhaustive explorer certifies. Longer executions recycle labels and are
// checked against the windowed property (bounded_pair_within_window +
// check_timestamp_property_filtered).
//
// Space: n registers of ceil(log2 K) + ceil(log2 (K+1)) bits — versus the
// unbounded max-scan object's n registers of unbounded (64-bit in practice)
// integers. bench_t7_bounded tabulates the comparison.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/coro.hpp"
#include "runtime/history.hpp"
#include "snapshot/versioned_collect.hpp"
#include "util/assert.hpp"

namespace stamped::core {

/// Register content of the bounded object: the owner's current label value in
/// Z_K plus a wrap-detection guard in Z_{K+1}. The guard ticks with every
/// write but with a modulus coprime to K, so a double collect is only fooled
/// by K*(K+1) interim writes instead of K (a simplified stand-in for the
/// Haldar-Vitányi handshake bits).
struct BoundedLabel {
  std::int32_t val = 0;
  std::int32_t gen = 0;

  friend bool operator==(const BoundedLabel&, const BoundedLabel&) = default;

  [[nodiscard]] std::string repr() const;
};

/// Timestamp of the bounded object: a vector in Z_K^n (see file comment).
struct BoundedTimestamp {
  std::int32_t modulus = 0;
  std::vector<std::int32_t> comps;

  friend bool operator==(const BoundedTimestamp&,
                         const BoundedTimestamp&) = default;

  [[nodiscard]] std::string repr() const;
};

/// The comparison window W = (K-1)/2; 2W < K makes compare asymmetric.
[[nodiscard]] constexpr std::int32_t bounded_window(std::int32_t modulus) {
  return (modulus - 1) / 2;
}

/// Smallest modulus whose window covers executions with at most
/// `calls_per_process` getTS calls by each process (K = 2*calls + 1, min 3).
[[nodiscard]] constexpr std::int32_t bounded_modulus_for(
    int calls_per_process) {
  const std::int32_t k = 2 * calls_per_process + 1;
  return k < 3 ? 3 : k;
}

/// The modulus of one bounded object: `universe_bound`, or
/// bounded_modulus_for(calls_per_process) when it is <= 0. Throws
/// invariant_error below 3, where the window W = (K-1)/2 orders nothing.
[[nodiscard]] std::int32_t bounded_modulus(int calls_per_process,
                                           std::int32_t universe_bound);

/// Bits one BoundedLabel register needs: ceil(log2 K) + ceil(log2 (K+1)).
[[nodiscard]] int bounded_bits_per_register(std::int32_t modulus);

/// Cyclic dominance within the window (see file comment). Vectors with
/// different moduli or lengths are incomparable (returns false).
[[nodiscard]] bool bounded_before(const BoundedTimestamp& a,
                                  const BoundedTimestamp& b);

/// Functor form for the generic checkers.
struct BoundedCompare {
  [[nodiscard]] bool operator()(const BoundedTimestamp& a,
                                const BoundedTimestamp& b) const {
    return bounded_before(a, b);
  }
};

/// Conservative eligibility test for the windowed timestamp property: the
/// ordered pair (a, b) carries an obligation only if no process has more than
/// `bounded_window(modulus)` of its calls overlapping [a.invoked_at,
/// b.responded_at] — every register tick between the two scans belongs to
/// such a call, so eligible pairs satisfy the interim-tick bound.
[[nodiscard]] bool bounded_pair_within_window(
    const std::vector<runtime::CallRecord<BoundedTimestamp>>& all,
    const runtime::CallRecord<BoundedTimestamp>& a,
    const runtime::CallRecord<BoundedTimestamp>& b, std::int32_t modulus);

/// Aggregate accounting for one system run (wrap events = recycled labels).
/// Every bounded getTS reports here, on real threads too, so the counters are
/// relaxed atomics rather than a lock; read them once the run is over.
class BoundedStats {
 public:
  void on_call(std::uint64_t collects, bool wrapped) {
    collects_.fetch_add(collects, std::memory_order_relaxed);
    if (wrapped) wraps_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t collects() const {
    return collects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wraps() const {
    return wraps_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> collects_{0};
  std::atomic<std::uint64_t> wraps_{0};
};

/// One getTS() by process `pid` in an n-process bounded system; awaitable so
/// long-lived programs chain calls. Returns the vector timestamp.
template <class Ctx, class Log>
runtime::SubTask<BoundedTimestamp> bounded_getts(Ctx& ctx, int pid, int n,
                                                 std::int32_t modulus,
                                                 int call_index, Log* log,
                                                 BoundedStats* stats) {
  const std::uint64_t invoked = ctx.invocation_stamp();
  // Version-clock scan: O(n) integer comparison per double collect instead
  // of O(n) label comparisons, same step count (every recycling write ticks
  // the own component, so values never repeat between adjacent writes).
  auto scan = co_await snapshot::versioned_double_collect_scan(ctx, n);

  const BoundedLabel& mine = scan.view[static_cast<std::size_t>(pid)];
  BoundedLabel next;
  next.val = (mine.val + 1) % modulus;         // recycling: K-1 wraps to 0
  next.gen = (mine.gen + 1) % (modulus + 1);   // wrap-detection guard
  co_await ctx.write(pid, next);

  BoundedTimestamp ts;
  ts.modulus = modulus;
  ts.comps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ts.comps.push_back(scan.view[static_cast<std::size_t>(i)].val);
  }
  ts.comps[static_cast<std::size_t>(pid)] = next.val;

  if (stats != nullptr) stats->on_call(scan.collects, next.val == 0);
  if (log != nullptr) {
    log->record({pid, call_index, ts, invoked, ctx.stamp()});
  }
  ctx.note_call_complete();
  co_return ts;
}

}  // namespace stamped::core
