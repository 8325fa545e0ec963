// Per-family engines of the sharded service: the uniform seam between the
// generic client program (sharded_service.hpp) and the paper's algorithms
// (src/core/).
//
// An engine answers, for one family: how many registers a shard of width w
// needs, what the registers start as, how one shard-local getTS call runs,
// and how the shard's local history is compared and filtered.
//
// Engines run under OffsetCtx with shard-LOCAL pids, so every algorithm
// keeps its own register discipline per shard.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

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

namespace stamped::shard {

/// Shard-local geometry an engine call runs against: how many processes the
/// shard's family instance seats and how many registers it owns.
struct ShardGeom {
  int width = 0;
  int regs = 0;
};

struct MaxscanEngine {
  using V = std::int64_t;
  using Ts = std::int64_t;
  using Cmp = core::Compare;

  explicit MaxscanEngine(const api::ScenarioSpec&) {}

  [[nodiscard]] static int shard_registers(int width,
                                           const api::ScenarioSpec&) {
    return width;
  }
  [[nodiscard]] static V initial_value() { return 0; }
  [[nodiscard]] Cmp compare() const { return {}; }
  [[nodiscard]] api::PairFilter<Ts> filter() const { return nullptr; }
  [[nodiscard]] api::Metrics metrics() const { return {}; }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const ShardGeom& g, int local_pid,
                             int call_index, Log* log) {
    return core::maxscan_getts(ctx, local_pid, g.width, call_index, log);
  }
};

struct SimpleEngine {
  using V = std::int64_t;
  using Ts = std::int64_t;
  using Cmp = core::Compare;

  explicit SimpleEngine(const api::ScenarioSpec& spec) {
    STAMPED_ASSERT_MSG(spec.calls_per_process == 1,
                       "simple-oneshot shards are one-shot per client");
  }

  [[nodiscard]] static int shard_registers(int width,
                                           const api::ScenarioSpec&) {
    return core::simple_oneshot_registers(width);
  }
  [[nodiscard]] static V initial_value() { return 0; }
  [[nodiscard]] Cmp compare() const { return {}; }
  [[nodiscard]] api::PairFilter<Ts> filter() const { return nullptr; }
  [[nodiscard]] api::Metrics metrics() const { return {}; }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const ShardGeom& g, int local_pid,
                             int call_index, Log* log) {
    return core::simple_getts(ctx, local_pid, g.width, call_index, log);
  }
};

/// Algorithm 4 on a per-shard pool sized for the shard's worst-case call
/// count (rehash routing may funnel every call into one shard, so the pool
/// is provisioned for all of them — elasticity costs footprint, explicitly).
struct SqrtEngine {
  using V = core::TsRecord;
  using Ts = core::PairTimestamp;
  using Cmp = core::Compare;

  explicit SqrtEngine(const api::ScenarioSpec& spec)
      : calls_(spec.calls_per_process),
        stats_(std::make_shared<core::SqrtStats>()) {}

  [[nodiscard]] int shard_registers(int width,
                                    const api::ScenarioSpec& spec) const {
    return core::sqrt_oneshot_registers(
        static_cast<std::int64_t>(width) * spec.calls_per_process);
  }
  [[nodiscard]] static V initial_value() { return core::TsRecord::bottom(); }
  [[nodiscard]] Cmp compare() const { return {}; }
  [[nodiscard]] api::PairFilter<Ts> filter() const { return nullptr; }
  [[nodiscard]] api::Metrics metrics() const {
    return {{"scans", static_cast<std::int64_t>(stats_->scans().size())}};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const ShardGeom& g, int local_pid,
                             int call_index, Log* log) {
    return core::sqrt_getts(ctx, core::TsId{local_pid, call_index}, g.regs,
                            log, stats_.get());
  }

 protected:
  int calls_;
  std::shared_ptr<core::SqrtStats> stats_;
};

/// Algorithm 4 on the growing pool (no a-priori bound baked into the label).
struct GrowingEngine : SqrtEngine {
  using SqrtEngine::SqrtEngine;

  [[nodiscard]] int shard_registers(int width,
                                    const api::ScenarioSpec& spec) const {
    return core::growing_pool_registers(width * spec.calls_per_process);
  }
};

struct FetchAddEngine {
  using V = std::int64_t;
  using Ts = std::int64_t;
  using Cmp = core::Compare;

  explicit FetchAddEngine(const api::ScenarioSpec&) {}

  [[nodiscard]] static int shard_registers(int, const api::ScenarioSpec&) {
    return 1;
  }
  [[nodiscard]] static V initial_value() { return 0; }
  [[nodiscard]] Cmp compare() const { return {}; }
  [[nodiscard]] api::PairFilter<Ts> filter() const { return nullptr; }
  [[nodiscard]] api::Metrics metrics() const { return {}; }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const ShardGeom&, int local_pid,
                             int call_index, Log* log) {
    // pid only labels the record; the counter is register 0 for everyone.
    return core::fetchadd_getts(ctx, local_pid, call_index, log);
  }
};

struct BoundedEngine {
  using V = core::BoundedLabel;
  using Ts = core::BoundedTimestamp;
  using Cmp = core::BoundedCompare;

  explicit BoundedEngine(const api::ScenarioSpec& spec)
      : calls_(spec.calls_per_process),
        modulus_(spec.universe_bound > 0
                     ? spec.universe_bound
                     : core::bounded_modulus_for(spec.calls_per_process)),
        stats_(std::make_shared<core::BoundedStats>()) {}

  [[nodiscard]] static int shard_registers(int width,
                                           const api::ScenarioSpec&) {
    return width;
  }
  [[nodiscard]] static V initial_value() { return {}; }
  [[nodiscard]] Cmp compare() const { return {}; }

  /// Same windowed-obligation rule as the unsharded family: when the window
  /// covers every call a client makes, the unconditional property applies.
  [[nodiscard]] api::PairFilter<Ts> filter() const {
    if (core::bounded_window(modulus_) >= calls_) return nullptr;
    const std::int32_t k = modulus_;
    return [k](const std::vector<runtime::CallRecord<Ts>>& all,
               const runtime::CallRecord<Ts>& a,
               const runtime::CallRecord<Ts>& b) {
      return core::bounded_pair_within_window(all, a, b, k);
    };
  }
  [[nodiscard]] api::Metrics metrics() const {
    return {{"wraps", static_cast<std::int64_t>(stats_->wraps())},
            {"collects", static_cast<std::int64_t>(stats_->collects())}};
  }

  template <class Ctx, class Log>
  runtime::SubTask<Ts> getts(Ctx& ctx, const ShardGeom& g, int local_pid,
                             int call_index, Log* log) {
    return core::bounded_getts(ctx, local_pid, g.width, modulus_, call_index,
                               log, stats_.get());
  }

 private:
  int calls_;
  std::int32_t modulus_;
  std::shared_ptr<core::BoundedStats> stats_;
};

}  // namespace stamped::shard
