// ShardedInstance: the type-erased face of one sharded-service run.
//
// Not a FamilyInstance — a sharded run has richer structure than one call
// log: a composed global history, one local history per shard, the
// per-shard traffic split, and the cross-shard obligation. The harness
// consumes this interface (api/harness.cpp routes ScenarioSpec::shard.shards
// > 0 here); families expose a builder through TimestampFamily::make_sharded.
#pragma once

#include <cstdint>
#include <vector>

#include "api/family.hpp"
#include "runtime/isystem.hpp"
#include "verify/hb_checker.hpp"

namespace stamped::shard {

/// What one sharded run did, beyond the plain call counts: the per-shard
/// traffic split. Deterministic on the simulator (the scheduler is);
/// load-dependent on real threads.
struct ShardRunStats {
  int shards = 0;
  int clients = 0;
  std::int64_t total_registers = 0;     ///< across all shard instances
  std::vector<std::uint64_t> per_shard_calls;
  std::vector<int> per_shard_clients;   ///< static members (rehash: all)

  /// Always 0: the service has no combiner, so no call is batched, and no
  /// lease exists to steal or expire. Kept only because the repository
  /// benchmark (perfbench/) still reads them; its next change drops them.
  std::uint64_t combiner_passes = 0;
  std::uint64_t combined_calls = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t lease_steals = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t claim_losses = 0;

  [[nodiscard]] double avg_batch() const {
    return combiner_passes > 0
               ? static_cast<double>(combined_calls) /
                     static_cast<double>(combiner_passes)
               : 0.0;
  }
};

class ShardedInstance {
 public:
  virtual ~ShardedInstance() = default;
  ShardedInstance(const ShardedInstance&) = delete;
  ShardedInstance& operator=(const ShardedInstance&) = delete;

  /// True when built for Backend::kNative: drive with run_native(). A sim
  /// instance is driven through system() by a kDriver schedule source.
  [[nodiscard]] virtual bool native() const = 0;
  [[nodiscard]] virtual runtime::ISystem& system() = 0;
  virtual api::NativeRunStats run_native(int threads) = 0;

  /// The composed global history: one record per client call, timestamped
  /// with (epoch, shard, local label), compared through ComposedCompare.
  [[nodiscard]] virtual api::GenericCallLog composed_calls() const = 0;

  /// Shard s's local history through the family's own comparator and pair
  /// filter — the per-shard property check runs on exactly what the shard's
  /// family instance saw.
  [[nodiscard]] virtual api::GenericCallLog shard_calls(int s) const = 0;

  /// verify::check_cross_shard_monotonicity over the composed history.
  [[nodiscard]] virtual verify::HbReport cross_shard_monotonicity() const = 0;

  [[nodiscard]] virtual ShardRunStats shard_stats() const = 0;
  [[nodiscard]] virtual api::Metrics metrics() const { return {}; }

 protected:
  ShardedInstance() = default;
};

}  // namespace stamped::shard
