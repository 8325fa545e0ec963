// Exhaustive execution explorer: model checking on the simulator.
//
// Because processes are deterministic coroutines and a configuration is
// reproducible from its schedule, the set of ALL executions of a small
// system is a tree of schedules. This module enumerates that tree and runs a
// caller-supplied check at every complete (maximal) execution — e.g. "the
// timestamp property holds in every interleaving of Algorithm 4 with 2
// processes", a statement no finite number of random schedules can certify.
//
// The engine is a work-list DFS over frontier entries rather than a
// recursion: at each node the first candidate child is explored *in place*
// on the live instance (no replay), and the remaining siblings are parked on
// a frontier deque as `(schedule prefix, sleep set, remaining candidates)`.
// Whoever pops such an entry — the same worker backtracking, or a thief in
// the parallel mode — reconstructs the node's configuration by one replay of
// the prefix (configurations cannot be copied, only reconstructed), steps
// the next sibling, parks the rest again, and descends in place. With one
// worker this visits the exact same tree in the exact same order as the
// classic recursive DFS (and tolerates max_depth-deep trees without
// exhausting the C stack); with ExploreOptions::threads > 1 a fixed worker
// pool drains the shared deque LIFO, stolen prefixes replay on the thief,
// and the per-worker results merge into one deterministic ExploreResult —
// node/execution/prune counts are set-derived, so a completed parallel
// exploration reports exactly the serial counts, and violations are sorted
// to erase scheduling nondeterminism.
//
// With ExploreOptions::por the DFS applies sleep-set partial-order reduction
// (Godefroid style): after a branch explores transition t from a node, its
// sibling branches put t to sleep and skip any node where every live process
// is asleep — each pruned subtree contains only executions Mazurkiewicz-
// equivalent (reorderings of adjacent independent steps) to ones already
// explored. Two steps are *independent* iff they touch different registers,
// or the same register with neither writing (read-read independence), AND
// not both complete a method call. The call-completion clause covers the
// happens-before checks: response stamps, and the invocation stamps of every
// call after a process's first, are taken inside call-completing steps, so
// commuting steps of which at most one completes a call preserves those
// happens-before pairs, the recorded timestamps, and hence the check verdict
// of each execution. A sleeping process's pending op cannot change while it
// sleeps (any write to a register it is about to access is dependent and
// wakes it), which is the classic persistence argument that makes sleep sets
// miss no violation. Sleep sets are pid bitmasks (std::uint64_t, so n <= 64)
// with one packed op word per sleeping pid — membership tests, candidate
// filtering and copies are word operations, not vector scans.
//
// ExploreOptions::persistent layers a persistent-set heuristic on top: at
// each branching node the candidate set shrinks to the smallest closure of
// one candidate under pending-op register-footprint conflicts (same register
// with at least one write). Sleep sets prune equivalent *subtrees after the
// siblings branched*; the persistent set stops read-read-independent
// siblings from branching at all, so their replays never happen. The
// footprint closure is weaker than the sleep-set dependence in two ways: it
// looks only at the *pending* ops, not at what a deferred process may access
// later, and it cannot include the call-completion clause (whether a step
// completes a method call is only observable by executing it), so it may
// commute two call-completing steps and with them a happens-before pair.
// Unlike the sleep sets it is therefore a reduction heuristic rather than a
// theorem — crosscheck_por() remains the certification tool (it diffs
// full-vs-reduced violation sets per instance), and the conformance suite
// runs it per family.
//
// ExploreOptions::footprints sharpens the pending-op closure with the
// family's declared static write map (analysis::write_footprints): a
// deferred process joins the persistent set only if it MAY EVER write a
// register the set already has pending — membership is decided by the
// declared writer masks, not by the op the process happens to be poised at.
// For SWMR families the static map is the exact set of future writers of
// each register, which closes the heuristic's future-write gap on the write
// side (a process poised at a read now but about to write a pending
// register is pulled in). At each seed the engine takes whichever closure —
// static or pending-op — is smaller, so the footprint-driven tree never
// branches wider than the heuristic tree at any node. Read observability
// (who will later read a pending write) remains approximate, so
// crosscheck_por() stays the certification tool here too.
//
// Known scope limit (inherited from the exploration tree itself, not
// introduced by the reduction): each process's FIRST invocation stamp is
// taken when its coroutine starts — at the root for a live instance, after
// the prefix for a replayed entry — so hb pairs involving a first
// invocation depend on the tree's replay structure, which differs between
// the full and reduced trees (and between branches of the full tree). The
// reduction is therefore exactly violation-preserving for checks derived
// from register values and per-process observations (schedule-determined),
// and for hb-based checks on all pairs not involving a first-call
// invocation; for the remainder, crosscheck_por() is the certification tool
// — it runs both trees and diffs the violation sets.
//
// The budget caps the raw tree. The per-node sibling cost is one replay of
// the prefix; the in-place first child costs none.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace stamped::verify {

/// One disposable system instance with a validity check bound to it (the
/// check typically inspects a history recorder owned by the same closure).
struct ExplorationInstance {
  std::unique_ptr<runtime::ISystem> sys;
  std::function<std::optional<std::string>()> check;
};

/// Creates fresh instances; called once per explored branch. With
/// ExploreOptions::threads > 1 the factory (and the checks of the instances
/// it produces) is invoked concurrently from the worker pool and must be
/// thread-safe; instances themselves are never shared between workers.
using InstanceFactory = std::function<ExplorationInstance()>;

/// Static write map of the explored family: bit p of reg_writers[r] is set
/// iff process p may write register r in SOME execution of the scenario.
/// Produced by analysis::write_footprints from the family's declared
/// FootprintSpec; consumed by the persistent-set closure (see file comment).
/// Registers beyond reg_writers.size() are treated as writable by everyone
/// (no information, no reduction).
struct WriteFootprints {
  std::vector<std::uint64_t> reg_writers;

  [[nodiscard]] std::uint64_t writers_of(int reg) const {
    return reg >= 0 && reg < static_cast<int>(reg_writers.size())
               ? reg_writers[static_cast<std::size_t>(reg)]
               : ~std::uint64_t{0};
  }
};

struct ExploreOptions {
  /// Stop after this many complete executions (0 = unlimited). Enforced
  /// exactly in both serial and parallel mode (atomic budget), but which
  /// executions land inside a binding budget is scheduling-dependent when
  /// threads > 1.
  std::uint64_t max_executions = 1u << 20;
  /// Guard against non-terminating programs: a schedule prefix reaching this
  /// length with unfinished processes is recorded as a violation and the
  /// exploration stops (a real runtime check — not an assertion, so it also
  /// fires in builds that disable assertions).
  std::uint64_t max_depth = 1u << 14;
  /// Sleep-set + read-read-independence partial-order reduction (see file
  /// comment). Off by default: the full DFS remains the reference tree.
  bool por = false;
  /// Persistent-set reduction layered on the sleep sets (see file comment);
  /// requires `por`. Off by default — it is a footprint heuristic certified
  /// per instance by crosscheck_por, not a standalone soundness theorem.
  bool persistent = false;
  /// Worker threads for the work-stealing parallel DFS. 1 (default) runs the
  /// exact serial exploration on the calling thread; 0 = hardware
  /// concurrency. See the file comment for the determinism guarantees.
  int threads = 1;
  /// Declared static write map for the footprint-driven persistent-set
  /// closure (see file comment). Null = pending-op heuristic only. Ignored
  /// unless `persistent`.
  std::shared_ptr<const WriteFootprints> footprints;
  /// Harness switch: when set, api::Harness fills `footprints` from the
  /// family's declared FootprintSpec before exploring (run_scenario and
  /// crosscheck_por exhaustive paths). No effect on direct explorer calls.
  bool exact_footprints = false;
};

struct ExploreResult {
  std::uint64_t executions = 0;       ///< complete executions checked
  std::uint64_t nodes = 0;            ///< interior scheduling decisions
  std::uint64_t max_depth_seen = 0;
  /// Nodes where every live process was asleep: the roots of the subtrees
  /// the sleep sets pruned (always 0 without ExploreOptions::por).
  std::uint64_t sleep_pruned = 0;
  /// Candidate transitions the persistent sets deferred at branching nodes —
  /// siblings that never branched, hence never replayed (0 unless
  /// ExploreOptions::persistent).
  std::uint64_t persistent_deferred = 0;
  /// Worker threads the exploration actually used.
  int workers = 1;
  bool budget_exhausted = false;
  /// A schedule prefix hit ExploreOptions::max_depth with live processes
  /// (non-terminating program?); a violation describing it was recorded and
  /// the exploration was cut short.
  bool depth_exceeded = false;
  /// "<message> [schedule: ...]". Serial explorations report them in DFS
  /// order; parallel explorations sort them so the merged result is
  /// deterministic regardless of worker interleaving.
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Enumerates every maximal execution of the systems produced by `factory`
/// and applies the instance check at each; see file comment.
ExploreResult explore_all_executions(const InstanceFactory& factory,
                                     const ExploreOptions& opts = {});

/// A violation message with its " [schedule: ...]" suffix stripped — the
/// canonical form under which the full and reduced trees are compared (the
/// full DFS reports one violation per violating execution; the reduced tree
/// reports one per equivalence class, reached through a different schedule).
[[nodiscard]] std::string strip_schedule_suffix(const std::string& violation);

/// Result of running the same factory through the full DFS and the
/// POR-reduced DFS and diffing their canonical violation sets.
struct PorCrossCheck {
  ExploreResult full;     ///< serial reference: por/persistent off, threads=1
  ExploreResult reduced;  ///< opts with por = true (persistent/threads kept)
  /// Canonical violations found by exactly one of the two trees. Both empty
  /// iff the reduction provably lost (and invented) nothing on this instance.
  std::vector<std::string> only_full;
  std::vector<std::string> only_reduced;

  [[nodiscard]] bool agree() const {
    return only_full.empty() && only_reduced.empty();
  }
};

/// Cross-check mode: explores the factory twice — once as the serial full
/// reference (por, persistent and threads all forced off) and once reduced
/// (por forced on; the caller's persistent/threads honored) — with the same
/// budget, and compares the violation sets modulo schedule suffix. Used by
/// the tests that prove the reduced and/or parallel tree finds the same
/// violations on seeded-buggy instances while visiting strictly fewer nodes.
PorCrossCheck crosscheck_por(const InstanceFactory& factory,
                             ExploreOptions opts = {});

}  // namespace stamped::verify
