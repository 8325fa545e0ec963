// The registered families, one engine each (the interface is in
// api/engine.hpp; api::registry() lists them).
//
// Each engine binds one of the paper's algorithms (src/core/) to its
// metadata, register count, declared footprint, pair filter and metrics.
// Engines run under shard::OffsetCtx with shard-local pids as well, so every
// algorithm keeps its own register discipline per shard.
#pragma once

#include <cstdint>
#include <vector>

#include "api/engine.hpp"
#include "api/family.hpp"
#include "api/scenario.hpp"
#include "core/bounded_longlived.hpp"
#include "core/fetchadd_baseline.hpp"
#include "core/growing_oneshot.hpp"
#include "core/maxscan_longlived.hpp"
#include "core/simple_oneshot.hpp"
#include "core/sqrt_oneshot.hpp"
#include "core/timestamp.hpp"
#include "runtime/coro.hpp"
#include "util/assert.hpp"

namespace stamped::api {

namespace detail {

/// Bitmask of every pid in the scenario (FootprintSpec masks; n <= 64).
constexpr std::uint64_t all_pids(int n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

constexpr std::uint64_t pid_bit(int p) { return std::uint64_t{1} << p; }

/// Register p belongs to process p (the SWMR layout).
inline std::uint64_t own_register_writer(const ScenarioSpec& spec, int reg) {
  return reg >= 0 && reg < spec.n ? pid_bit(reg) : std::uint64_t{0};
}

/// Every register is written in a complete execution.
inline bool never_unwritten(const ScenarioSpec&, int) { return false; }

/// Only register 0 is sure to be written: Algorithm 4's first getTS call
/// lands its starter write there, and frontier registers beyond the phases
/// an execution starts may stay unwritten.
inline bool alg4_frontier_may_be_unwritten(const ScenarioSpec&, int reg) {
  return reg >= 1;
}

}  // namespace detail

struct MaxscanEngine : EngineBase<std::int64_t, std::int64_t, core::Compare> {
  static constexpr FamilyInfo kInfo{
      .name = "maxscan",
      .summary = "long-lived collect/max+1 comparator, n SWMR registers",
      .paper_ref = "Theorem 1.1 shape (Theta(n) comparator)",
      .lifetime = Lifetime::kLongLived,
      .universe = "integers, compare is <",
      .writes_full_allocation = true};

  explicit MaxscanEngine(const ScenarioSpec&) {}

  [[nodiscard]] static int registers(int width, const ScenarioSpec&) {
    return width;
  }

  // Paper SWMR layout: register p belongs to process p; everyone collects.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kSWMR,
            .writer_mask = detail::own_register_writer,
            .may_be_unwritten = detail::never_unwritten};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry& g, int pid, int k,
                             Log* log) {
    return core::maxscan_getts(ctx, pid, g.width, k, log);
  }
};

struct SimpleEngine : EngineBase<std::int64_t, std::int64_t, core::Compare> {
  static constexpr FamilyInfo kInfo{
      .name = "simple-oneshot",
      .summary = "Section 5 simple one-shot algorithm, ceil(n/2) registers",
      .paper_ref = "Section 5 (Algorithm 2)",
      .lifetime = Lifetime::kOneShot,
      .universe = "integers in [1, 2*ceil(n/2)], compare is <",
      .max_calls_per_process = 1,
      .writes_full_allocation = true};

  explicit SimpleEngine(const ScenarioSpec& spec) {
    STAMPED_ASSERT_MSG(spec.calls_per_process == 1,
                       "simple-oneshot is one-shot per process");
  }

  [[nodiscard]] static int registers(int width, const ScenarioSpec&) {
    return core::simple_oneshot_registers(width);
  }

  // Algorithm 2 pairs processes 2r and 2r+1 on register r.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kMWMR,
            .writer_mask =
                [](const ScenarioSpec& spec, int reg) {
                  std::uint64_t mask = 0;
                  for (const int p : {2 * reg, 2 * reg + 1}) {
                    if (p < spec.n) mask |= detail::pid_bit(p);
                  }
                  return mask;
                },
            .may_be_unwritten = detail::never_unwritten};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry& g, int pid, int k,
                             Log* log) {
    return core::simple_getts(ctx, pid, g.width, k, log);
  }
};

/// Algorithm 4 on ceil(2*sqrt(M)) registers for the instance's M calls. A
/// shard's pool is sized for every call its width can make (rehash routing
/// may funnel every call into one shard, so elasticity costs footprint,
/// explicitly).
struct SqrtEngine
    : EngineBase<core::TsRecord, core::PairTimestamp, core::Compare> {
  static constexpr FamilyInfo kInfo{
      .name = "sqrt-oneshot",
      .summary =
          "Section 6 Algorithm 4, ceil(2*sqrt(M)) registers (Theorem 1.3)",
      .paper_ref = "Section 6 (Algorithms 3+4)",
      .lifetime = Lifetime::kOneShot,
      .universe = "pairs (rnd, turn), compare is lexicographic <",
      .max_calls_per_process = 0,  // calls > 1: the bounded-M generalization
      .writes_full_allocation = false};  // the sentinel is never written

  explicit SqrtEngine(const ScenarioSpec&) {}

  [[nodiscard]] static int registers(int width, const ScenarioSpec& spec) {
    return core::sqrt_oneshot_registers(static_cast<std::int64_t>(width) *
                                        spec.calls_per_process);
  }
  [[nodiscard]] static V initial_value() { return core::TsRecord::bottom(); }

  // Any process may write any frontier register; the last of the
  // ceil(2*sqrt(M)) registers is the paper's never-written sentinel.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kMWMRSentinel,
            .writer_mask =
                [](const ScenarioSpec& spec, int reg) {
                  return reg >= 0 && reg < registers(spec.n, spec) - 1
                             ? detail::all_pids(spec.n)
                             : std::uint64_t{0};
                },
            .may_be_unwritten = detail::alg4_frontier_may_be_unwritten};
  }

  [[nodiscard]] Metrics metrics() const {
    return {{"scans", static_cast<std::int64_t>(stats_.scans().size())}};
  }

  /// The run's scans (verify::analyze_phases dates phases by them).
  [[nodiscard]] const core::SqrtStats& stats() const { return stats_; }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry& g, int pid, int k,
                             Log* log) {
    return core::sqrt_getts(ctx, core::TsId{pid, k}, g.regs, log, &stats_);
  }

 protected:
  core::SqrtStats stats_;
};

/// Algorithm 4 on the growing pool (no a-priori bound baked into the label).
/// `Variant` selects the paper's algorithm (the registered family) or one of
/// core::SqrtVariant's deliberate deviations; the pool has room for every
/// phase either can start, so a deviation cannot trip the space assertion.
template <core::SqrtVariant Variant = core::SqrtVariant::kPaper>
struct GrowingEngine : SqrtEngine {
  static constexpr FamilyInfo kInfo{
      .name = "growing-oneshot",
      .summary =
          "Algorithm 4 on an unbounded register pool (no a-priori call bound)",
      .paper_ref = "Section 7 remark (growing generalization)",
      .lifetime = Lifetime::kOneShot,
      .universe = "pairs (rnd, turn), compare is lexicographic <",
      .writes_full_allocation = false};

  using SqrtEngine::SqrtEngine;

  [[nodiscard]] static int registers(int width, const ScenarioSpec& spec) {
    return core::growing_pool_registers(width * spec.calls_per_process);
  }

  // Each getTS call starts at most one phase and invalidation writes only
  // target already-started phases, so with total_calls() calls no register
  // at index >= total_calls() is ever written: the pool's tail
  // (growing_pool_registers adds two) is all sentinel.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kMWMRSentinel,
            .writer_mask =
                [](const ScenarioSpec& spec, int reg) {
                  return reg >= 0 && reg < spec.total_calls()
                             ? detail::all_pids(spec.n)
                             : std::uint64_t{0};
                },
            .may_be_unwritten = detail::alg4_frontier_may_be_unwritten};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry& g, int pid, int k,
                             Log* log) {
    return core::sqrt_getts(ctx, core::TsId{pid, k}, g.regs, log, &stats_,
                            Variant);
  }
};

struct FetchAddEngine
    : EngineBase<std::int64_t, std::int64_t, core::Compare> {
  static constexpr FamilyInfo kInfo{
      .name = "fetchadd",
      .summary =
          "non-register fetch&add baseline: one counter, one step per call",
      .paper_ref = "outside the paper's model (throughput baseline)",
      .lifetime = Lifetime::kLongLived,
      .universe = "integers, compare is <",
      .writes_full_allocation = true};

  explicit FetchAddEngine(const ScenarioSpec&) {}

  [[nodiscard]] static int registers(int, const ScenarioSpec&) { return 1; }

  // Everyone RMWs the single counter; the only op kind is fetch&add.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kMWMR,
            .writer_mask =
                [](const ScenarioSpec& spec, int reg) {
                  return reg == 0 ? detail::all_pids(spec.n) : std::uint64_t{0};
                },
            .may_be_unwritten = detail::never_unwritten,
            .allowed_ops = 1u << static_cast<unsigned>(
                               runtime::OpKind::kFetchAdd)};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry&, int pid, int k,
                             Log* log) {
    // pid only labels the record; the counter is register 0 for everyone.
    return core::fetchadd_getts(ctx, pid, k, log);
  }
};

struct BoundedEngine : EngineBase<core::BoundedLabel, core::BoundedTimestamp,
                                  core::BoundedCompare> {
  static constexpr FamilyInfo kInfo{
      .name = "bounded",
      .summary = "bounded-universe long-lived object (Haldar-Vitanyi style), "
                 "labels in Z_K^n",
      .paper_ref = "beyond the source paper (see PAPERS.md)",
      .lifetime = Lifetime::kLongLived,
      .universe = "vectors in Z_K^n, compare is windowed cyclic dominance",
      .writes_full_allocation = true};

  explicit BoundedEngine(const ScenarioSpec& spec)
      : calls_(spec.calls_per_process),
        modulus_(core::bounded_modulus(spec.calls_per_process,
                                       spec.universe_bound)) {}

  [[nodiscard]] static int registers(int width, const ScenarioSpec&) {
    return width;
  }

  // Haldar-Vitanyi assumes one writer per traceable variable: register p
  // holds process p's label and only p rewrites it.
  [[nodiscard]] static FootprintSpec footprint() {
    return {.ownership = Ownership::kSWMR,
            .writer_mask = detail::own_register_writer,
            .may_be_unwritten = detail::never_unwritten};
  }

  /// When the window covers every call a process makes (K >= 2*calls + 1,
  /// the auto default) the unconditional property applies, as for the
  /// unbounded families. Only a deliberately small universe_bound puts the
  /// run in the recycling regime, where ordered pairs outside the window
  /// carry no obligation.
  [[nodiscard]] PairFilter<Ts> filter() const {
    if (core::bounded_window(modulus_) >= calls_) return nullptr;
    return [k = modulus_](const std::vector<runtime::CallRecord<Ts>>& all,
                          const runtime::CallRecord<Ts>& a,
                          const runtime::CallRecord<Ts>& b) {
      return core::bounded_pair_within_window(all, a, b, k);
    };
  }

  [[nodiscard]] Metrics metrics() const {
    return {{"wraps", static_cast<std::int64_t>(stats_.wraps())},
            {"collects", static_cast<std::int64_t>(stats_.collects())}};
  }

  [[nodiscard]] const core::BoundedStats& stats() const { return stats_; }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const Geometry& g, int pid, int k,
                             Log* log) {
    return core::bounded_getts(ctx, pid, g.width, modulus_, k, log, &stats_);
  }

 private:
  int calls_;
  std::int32_t modulus_;
  core::BoundedStats stats_;
};

}  // namespace stamped::api
