// TimestampFamily: one first-class descriptor per timestamp implementation.
//
// A TimestampFamily erases the per-family value, timestamp and comparator
// types behind:
//   - metadata: name, lifetime kind, timestamp universe, paper reference,
//     the registers it allocates as a callable of the scenario, and the
//     declared register footprint;
//   - make(spec): a live FamilyInstance — simulated system + the history it
//     records, behind the GenericCallLog view;
//   - factory(spec): a deterministic runtime::SystemFactory for the
//     replay-based adversaries and the exhaustive explorer;
//   - make_native(spec): the same scenario as a native FamilyInstance that
//     runs on real hardware threads (src/native/ over the atomicmem
//     backend) and records a checkable history;
//   - make_sharded(spec): the family as a sharded service (src/shard/).
//
// Every registered family is derived from one engine (api/engine.hpp,
// api/engine_family.hpp); the fields stay plain data and callables so tests
// and tools can build or patch a family field by field. api::registry()
// enumerates all families; harness.hpp composes any of them with any
// schedule source and the history checkers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.hpp"
#include "native/run_stats.hpp"
#include "runtime/history.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/system.hpp"
#include "verify/hb_checker.hpp"

namespace stamped::shard {
class ShardedInstance;  // src/shard/sharded_instance.hpp
}

namespace stamped::api {

/// Family-specific counters surfaced in ScenarioReport (e.g. the bounded
/// family's label recycles, Algorithm 4's double-collect scans).
using Metrics = std::vector<std::pair<std::string, std::int64_t>>;

/// Pair filter over typed records: does the ordered pair (a, b) carry a
/// timestamp-property obligation? Null means every pair does. (Bounded
/// families release pairs outside their recycling window.)
template <class Ts>
using PairFilter =
    std::function<bool(const std::vector<runtime::CallRecord<Ts>>&,
                       const runtime::CallRecord<Ts>&,
                       const runtime::CallRecord<Ts>&)>;

/// Erases a typed record vector to the GenericCallLog the checkers consume:
/// every instance, on either backend and sharded or not, feeds the checkers
/// through this one path.
template <class Ts, class Cmp>
[[nodiscard]] GenericCallLog erase_call_log(
    std::vector<runtime::CallRecord<Ts>> records, Cmp cmp,
    PairFilter<Ts> filter = nullptr) {
  auto typed = std::make_shared<std::vector<runtime::CallRecord<Ts>>>(
      std::move(records));
  GenericCallLog g;
  g.records.reserve(typed->size());
  for (std::size_t i = 0; i < typed->size(); ++i) {
    const auto& r = (*typed)[i];
    g.records.push_back({r.pid, r.call_index, i, r.invoked_at,
                         r.responded_at});
  }
  g.before = [typed, cmp = std::move(cmp)](std::size_t a, std::size_t b) {
    return cmp((*typed)[a].ts, (*typed)[b].ts);
  };
  g.ts_repr = [typed](std::size_t i) {
    return runtime::value_repr((*typed)[i].ts);
  };
  g.total_order = verify::DeclaresTotalOrder<Cmp> && !filter;
  if (filter) {
    g.obligated = [typed, f = std::move(filter)](const GenericCallRecord& a,
                                                 const GenericCallRecord& b) {
      return f(*typed, (*typed)[a.ts], (*typed)[b.ts]);
    };
  } else {
    g.obligated = [](const GenericCallRecord&, const GenericCallRecord&) {
      return true;
    };
  }
  return g;
}

/// What a native (real-thread) run did; surfaced in ScenarioReport.
using NativeRunStats = native::RunStats;

/// A live scenario: the simulated system plus the typed history it records,
/// viewed type-erased. The instance owns what the system's programs point
/// into (the family's engine and the history recorder), so it must outlive
/// the system — take_system() hands out ownership of the system alone
/// (explorer composition) while the history stays with the instance.
class FamilyInstance {
 public:
  virtual ~FamilyInstance() = default;
  FamilyInstance(const FamilyInstance&) = delete;
  FamilyInstance& operator=(const FamilyInstance&) = delete;

  [[nodiscard]] runtime::ISystem& system() {
    STAMPED_ASSERT_MSG(sys_ != nullptr, "system was taken or never adopted");
    return *sys_;
  }

  /// Transfers ownership of the system (the instance keeps the logs; see
  /// class comment). Used by the exhaustive-exploration schedule source.
  [[nodiscard]] std::unique_ptr<runtime::ISystem> take_system() {
    return std::move(sys_);
  }

  /// Type-erased snapshot of the history recorded so far.
  [[nodiscard]] virtual GenericCallLog calls() const = 0;

  /// Family-specific counters (empty by default).
  [[nodiscard]] virtual Metrics metrics() const { return {}; }

  /// True for instances built by TimestampFamily::make_native — they run on
  /// real threads via run_native() and have no simulated system().
  [[nodiscard]] virtual bool native() const { return false; }

  /// Executes the native run (real threads; see src/native/). Only valid on
  /// native instances, and single-use. `threads` <= 0 means hardware
  /// concurrency.
  virtual NativeRunStats run_native(int threads) {
    (void)threads;
    STAMPED_ASSERT_MSG(false, "run_native on a simulated instance");
    return {};
  }

 protected:
  FamilyInstance() = default;
  std::unique_ptr<runtime::ISystem> sys_;
};

/// Register-ownership discipline of a family (paper, Sections 3-6): who may
/// write each register. The space bounds hinge on this structure, so it is
/// declared per family and linted against observed executions
/// (analysis::lint_footprints) rather than assumed.
enum class Ownership : std::uint8_t {
  kSWMR,          ///< single writer per register (max-scan, bounded)
  kMWMR,          ///< several declared writers per register (simple, fetch&add)
  kMWMRSentinel,  ///< MWMR body plus never-written sentinel tail (Algorithm 4)
};

/// The family's declared static register-access footprint: the paper's
/// ownership discipline as data. `writer_mask` is the ground truth the
/// footprint lint diffs observed executions against, and the static write
/// map the explorer's exact persistent-set closure is built from
/// (verify::WriteFootprints via analysis::write_footprints).
struct FootprintSpec {
  Ownership ownership = Ownership::kMWMR;

  /// Bitmask of pids permitted to write `reg` in ANY execution of the
  /// scenario (bit p set iff process p may write). A zero mask declares a
  /// hard sentinel: the register is read but never written — Algorithm 4's
  /// last register and the unreachable tail of the growing pool.
  std::function<std::uint64_t(const ScenarioSpec&, int reg)> writer_mask;

  /// True when `reg` may legitimately end a COMPLETE execution unwritten
  /// (hard sentinels, and Algorithm 4's frontier registers beyond the phases
  /// an execution actually starts). Registers observed never-written whose
  /// predicate is false fail the lint.
  std::function<bool(const ScenarioSpec&, int reg)> may_be_unwritten;

  /// Op kinds the family's programs may issue, as a bitmask indexed by
  /// runtime::OpKind (bit 1 << kind). The register algorithms use reads and
  /// writes only; the fetch&add baseline declares kFetchAdd instead.
  std::uint32_t allowed_ops = (1u << static_cast<unsigned>(
                                   runtime::OpKind::kRead)) |
                              (1u << static_cast<unsigned>(
                                   runtime::OpKind::kWrite));

  /// A family without a declared footprint predates the analysis layer (or
  /// deliberately opts out); the lint reports it instead of guessing.
  [[nodiscard]] bool declared() const { return writer_mask != nullptr; }
};

/// The type-erased descriptor of one timestamp implementation family.
struct TimestampFamily {
  std::string name;       ///< unique slug, e.g. "sqrt-oneshot"
  std::string summary;    ///< one-line human description
  std::string paper_ref;  ///< e.g. "Section 6 (Algorithm 4)"
  Lifetime lifetime = Lifetime::kOneShot;
  std::string universe;   ///< the timestamp universe T, human-readable

  /// 0 = unlimited getTS calls per process; 1 = strictly one-shot.
  int max_calls_per_process = 0;

  /// The paper's space bound for this scenario: registers the implementation
  /// allocates (== the quantity the theorems bound).
  std::function<std::int64_t(const ScenarioSpec&)> registers_allocated;

  /// True when a solo sequential run writes every allocated register
  /// (max-scan, simple, bounded, fetch&add); Algorithm 4 allocates a
  /// never-written sentinel and writes only the phase frontier.
  bool writes_full_allocation = false;

  /// Declared static register-access footprint (see FootprintSpec). Linted
  /// against observed executions by analysis::lint_footprints and fed to the
  /// explorer's exact persistent-set closure.
  FootprintSpec footprint;

  /// Builds a live instance recording a typed history (null log never used).
  std::function<std::unique_ptr<FamilyInstance>(const ScenarioSpec&)> make;

  /// Deterministic log-free factory for replay adversaries / the explorer.
  std::function<runtime::SystemFactory(const ScenarioSpec&)> factory;

  /// Builds a native instance: the same scenario wired for real threads
  /// (src/native/ over the atomicmem backend), recording a history through
  /// the lock-free recorder. Drive it with run_native(), then calls() /
  /// metrics() as usual. Null when the family has no native form.
  std::function<std::unique_ptr<FamilyInstance>(const ScenarioSpec&)>
      make_native;

  /// Builds a sharded-service run of this family (src/shard/): clients are
  /// routed to `spec.shard.shards` independent instances, each call runs the
  /// family getTS on its shard, and composed timestamps carry a global epoch.
  /// Requires spec.shard.shards >= 1. Null when the family has no sharded
  /// form. Works on both backends (the spec's Backend picks sim vs native).
  std::function<std::unique_ptr<shard::ShardedInstance>(const ScenarioSpec&)>
      make_sharded;

  /// Whether this family can run the given scenario.
  [[nodiscard]] bool supports(const ScenarioSpec& spec) const {
    return spec.n >= 1 && spec.calls_per_process >= 1 &&
           (max_calls_per_process == 0 ||
            spec.calls_per_process <= max_calls_per_process);
  }
};

}  // namespace stamped::api
