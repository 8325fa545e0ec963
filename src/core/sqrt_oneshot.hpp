// Section 6: the asymptotically space-optimal one-shot timestamp object.
//
// Algorithm 4 (getTS) with Algorithm 3 (compare = lexicographic on
// (rnd, turn)). For a system that performs at most M getTS calls it uses
// m = ceil(2*sqrt(M)) multi-writer registers, the last of which is a sentinel
// that is read but never written. Specialized to one-shot (M = n) this proves
// Theorem 1.3 and matches the sqrt(2n) - log n lower bound of Theorem 1.2.
//
// Register contents are core::TsRecord: ⊥ or <seq, rnd>. The execution
// proceeds in phases; during phase k registers R[1..k] (1-indexed) are
// non-⊥. A register R[j] is *valid* when last(R[j].seq) equals the j-th entry
// of R[k].seq; a getTS that began in phase k looks for the first valid
// register, invalidates it by overwriting, and returns (k, j). If none is
// valid it performs a double-collect scan and tries to start phase k+1 by
// writing the scanned last-ids into R[k+1], returning (k+1, 0).
//
// Indexing note: this file uses 0-based register indices; the paper is
// 1-based. `myrnd` here equals the paper's myrnd (the number of non-⊥
// registers found), so paper register R[myrnd] is index myrnd-1 and paper
// R[myrnd+1] is index myrnd. Returned timestamps follow the paper exactly:
// turn j in (rnd, j) refers to the paper's 1-based register number.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/timestamp.hpp"
#include "runtime/coro.hpp"
#include "snapshot/versioned_collect.hpp"
#include "util/assert.hpp"
#include "util/bounds.hpp"

namespace stamped::core {

/// Registers allocated by Algorithm 4 for at most M getTS calls:
/// f(M) = ceil(2*sqrt(M)), with a floor of 2 so the never-written sentinel
/// exists even for M = 1.
[[nodiscard]] inline int sqrt_oneshot_registers(std::int64_t max_calls) {
  const auto m = util::bounds::oneshot_upper_sqrt(max_calls);
  return static_cast<int>(m < 2 ? 2 : m);
}

/// Algorithm 4 variants: the paper's algorithm, the T4b ablation and the
/// test_mutation mutant. api::GrowingEngine takes one as a template
/// parameter.
enum class SqrtVariant {
  /// The paper's algorithm: on an invalid register, overwrite only when the
  /// stale record's rnd is below myrnd (line 10's guard).
  kPaper,
  /// The "simple repair" the paper rejects: always overwrite an invalid
  /// register before moving on. Still correct, but performs more
  /// invalidation writes — the ablation benchmark quantifies the cost.
  kAlwaysOverwrite,
  /// MUTANT — deliberately incorrect: never re-assert an invalidated
  /// register. Section 6.1 explains why this breaks: a stale write from an
  /// earlier phase can be "validated back" by a slow phase-starter, letting
  /// a later call return a smaller timestamp. Tests hunt for the violation.
  kNeverOverwrite,
};

/// The scans of one system run, in completion order: phase analysis
/// (verify::analyze_phases) dates phase starts by them, and the engines
/// report their count. Thread-safe; also used by the real-thread backend.
/// Only a call that finds no valid register scans, so the lock stays off the
/// common getTS path.
class SqrtStats {
 public:
  struct ScanEvent {
    int myrnd = 0;  ///< the scanner's myrnd; the scan may start phase myrnd+1
    std::uint64_t linearize_step = 0;  ///< canonical linearization step
    std::uint64_t collects = 0;
  };

  void on_scan(int myrnd, std::uint64_t linearize_step,
               std::uint64_t collects) {
    std::lock_guard<std::mutex> lock(mu_);
    scans_.push_back({myrnd, linearize_step, collects});
  }

  [[nodiscard]] std::vector<ScanEvent> scans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ScanEvent> scans_;
};

/// One getTS(ID) call (Algorithm 4), awaitable so that callers can chain
/// multiple calls (the bounded-M generalization). Returns the timestamp.
/// `m` is the register count; the system must perform at most M total calls
/// with sqrt_oneshot_registers(M) <= m. `log` and `stats` may be null (`Log`
/// is native::CallArena over PairTimestamp).
template <class Ctx, class Log>
runtime::SubTask<PairTimestamp> sqrt_getts(
    Ctx& ctx, TsId id, int m, Log* log, SqrtStats* stats,
    SqrtVariant variant = SqrtVariant::kPaper) {
  const std::uint64_t invoked = ctx.invocation_stamp();

  // Lines 1-3: scan forward for the first ⊥ register. Only the last non-⊥
  // value, the paper's r[myrnd], is read later (line 7), so that is all
  // this keeps.
  TsRecord mine;
  int j = 0;
  for (;;) {
    STAMPED_ASSERT_MSG(j < m,
                       "space bound violated: no ⊥ register among " << m);
    TsRecord v = co_await ctx.read(j);
    if (v.is_bottom) break;
    mine = std::move(v);
    ++j;
  }
  // Line 4: myrnd — the paper's 1-based round index; `mine` is paper
  // register R[myrnd] as read by lines 1-3.
  const int myrnd = j;

  PairTimestamp result;
  bool returned = false;

  // Line 5: for j = 1 .. myrnd-1 (paper); i = j-1 is the 0-based index.
  for (int i = 0; i <= myrnd - 2 && !returned; ++i) {
    // Line 6: if R[myrnd+1] == ⊥ (paper) — index myrnd.
    TsRecord probe = co_await ctx.read(myrnd);
    if (!probe.is_bottom) {
      // Line 12: the phase advanced; terminate with (myrnd+1, 0).
      result = {myrnd + 1, 0};
      returned = true;
      break;
    }
    // Line 7: valid iff r[myrnd].seq[j] == last(R[j].seq) (paper indices).
    TsRecord cur = co_await ctx.read(i);
    STAMPED_ASSERT_MSG(!cur.is_bottom,
                       "non-⊥ prefix invariant violated at register " << i);
    STAMPED_ASSERT_MSG(static_cast<int>(mine.seq.size()) == myrnd,
                       "phase record in R[" << myrnd - 1 << "] has seq length "
                                            << mine.seq.size() << ", expected "
                                            << myrnd);
    if (mine.seq[static_cast<std::size_t>(i)] == cur.last()) {
      // Lines 8-9: invalidate the first valid register, return (myrnd, j).
      co_await ctx.write(i, TsRecord::make_one(id, myrnd));
      result = {myrnd, i + 1};
      returned = true;
    } else if (variant != SqrtVariant::kNeverOverwrite &&
               (cur.rnd < myrnd ||
                variant == SqrtVariant::kAlwaysOverwrite)) {
      // Lines 10-11: the invalidation may be a stale write from an earlier
      // phase; re-assert it for the current phase so it cannot be undone by
      // a slow phase-starter (see the discussion after Lemma 6.4). The
      // kAlwaysOverwrite ablation re-asserts unconditionally.
      co_await ctx.write(i, TsRecord::make_one(id, myrnd));
    }
  }

  if (!returned) {
    // Line 13: scan — successful double collect over all m registers,
    // comparing version clocks instead of id-sequence vectors. Step-for-step
    // identical to the value-comparing scan because writes always change the
    // written register's value (Claim 6.1(b)).
    auto scan = co_await snapshot::versioned_double_collect_scan(ctx, m);
    if (stats != nullptr) {
      stats->on_scan(myrnd, scan.linearize_step, scan.collects);
    }
    // Lines 14-15: try to start phase myrnd+1.
    if (scan.view[static_cast<std::size_t>(myrnd)].is_bottom) {
      std::vector<TsId> seq;
      seq.reserve(static_cast<std::size_t>(myrnd) + 1);
      for (int k = 0; k < myrnd; ++k) {
        const TsRecord& rec = scan.view[static_cast<std::size_t>(k)];
        STAMPED_ASSERT_MSG(!rec.is_bottom,
                           "scan view has ⊥ below the frontier at " << k);
        seq.push_back(rec.last());
      }
      seq.push_back(id);
      co_await ctx.write(myrnd, TsRecord::make(seq, myrnd + 1));
    }
    // Line 16.
    result = {myrnd + 1, 0};
  }

  if (log != nullptr) {
    log->record({id.pid, id.call, result, invoked, ctx.stamp()});
  }
  ctx.note_call_complete();
  co_return result;
}

/// Program performing `calls` consecutive getTS calls (IDs "pid.k"). Only
/// perfbench's solo probe still calls it; the family engines
/// (api::SqrtEngine, api::GrowingEngine) build every Algorithm 4 system.
///
/// NOTE for every program coroutine in this library: programs are free
/// functions, not capturing lambdas, because coroutine parameters are copied
/// into the frame while lambda captures live in the (short-lived) closure
/// object.
template <class Ctx, class Log>
runtime::ProcessTask sqrt_calls_program(Ctx& ctx, int pid, int calls, int m,
                                        Log* log, SqrtStats* stats) {
  for (int k = 0; k < calls; ++k) {
    co_await sqrt_getts(ctx, TsId{pid, k}, m, log, stats);
  }
}

}  // namespace stamped::core
