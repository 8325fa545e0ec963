// Scenario vocabulary of the unified timestamp-family API.
//
// The paper is a *comparative* result: long-lived vs one-shot vs bounded
// universes. To compare implementations uniformly, every family is driven
// from the same ScenarioSpec and reports its history through the same
// type-erased GenericCallLog, whose timestamps are opaque handles ordered
// only by the family's own compare(). Consumers (conformance tests, space
// benches, examples) never see the per-family value types.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/isystem.hpp"
#include "util/assert.hpp"

namespace stamped::api {

/// Lifetime kind of a timestamp family (paper, Section 1).
enum class Lifetime : std::uint8_t {
  kOneShot,    ///< every process calls getTS() at most once
  kLongLived,  ///< processes call getTS() arbitrarily often
};

/// Which execution engine runs the scenario. The simulator interleaves
/// coroutine steps under a deterministic scheduler; the native backend runs
/// the same programs on real OS threads (src/native/) and checks the
/// recorded history post-hoc.
enum class Backend : std::uint8_t {
  kSim,     ///< deterministic coroutine simulator (runtime::System<V>)
  kNative,  ///< real threads over atomicmem::AtomicMemory<V>
};

[[nodiscard]] constexpr const char* backend_name(Backend b) {
  return b == Backend::kSim ? "sim" : "native";
}

/// Sharding parameters (src/shard/). shards == 0 disables sharding; a
/// positive count routes each client (or each call, under rehash_calls) to
/// one of `shards` independent family instances and composes globally
/// comparable (epoch, shard, local) timestamps.
struct ShardSpec {
  int shards = 0;            ///< 0 = unsharded; >= 1 = sharded service
  bool rehash_calls = false; ///< route per (client, call) instead of client
  /// Planted mis-composition for differential tests: report epoch 0 on
  /// every composed timestamp (the classic "forwarded the local label,
  /// dropped the epoch" bug). Never set outside tests.
  bool drop_epoch = false;
};

/// Parameters of one scenario: which system to build and how big.
struct ScenarioSpec {
  int n = 2;                   ///< number of processes
  int calls_per_process = 1;   ///< getTS calls per process (1 for one-shot)
  std::int32_t universe_bound = 0;  ///< bounded family's modulus K (0 = auto)
  std::uint64_t seed = 1;      ///< RNG seed for randomized schedule sources
  /// Recording mode of every simulated system built from this spec
  /// (make, factory and make_sharded all build in it). kCountsOnly skips
  /// per-step trace/view/observer bookkeeping in the hot loop — measurement
  /// sweeps only; history checkers still work (the programs, not the
  /// system, append each completed call to the instance's history
  /// recorder). The exhaustive explorer, the coverage fuzzer and footprint
  /// observation read step infos, so they require kFull and reject anything
  /// else.
  runtime::RecordingMode recording = runtime::RecordingMode::kFull;
  /// Execution engine. kNative requires the api::native_os() schedule source
  /// (the OS is the scheduler — driver/crash/jitter/fuzzer/exhaustive
  /// sources are simulator concepts) and ignores `recording`: native
  /// histories are checked post-hoc, never replayed.
  Backend backend = Backend::kSim;
  /// Worker threads for backend = kNative (<= 0: hardware concurrency).
  /// Requests beyond the core count are honored — the OS time-slices.
  int native_threads = 0;
  /// Sharded-service routing (src/shard/). shard.shards == 0 runs the plain
  /// unsharded family; >= 1 runs it through ShardedInstance.
  ShardSpec shard{};

  [[nodiscard]] bool sharded() const { return shard.shards > 0; }

  [[nodiscard]] std::int64_t total_calls() const {
    return static_cast<std::int64_t>(n) * calls_per_process;
  }
};

/// One completed getTS() call with its timestamp erased to an opaque handle
/// (an index into the owning GenericCallLog's timestamp store).
struct GenericCallRecord {
  int pid = -1;
  int call_index = 0;  ///< k for the k-th call by this process (0-based)
  std::size_t ts = 0;  ///< opaque timestamp handle
  std::uint64_t invoked_at = 0;
  std::uint64_t responded_at = 0;

  /// Paper's happens-before: this call's response precedes other's invocation.
  [[nodiscard]] bool happens_before(const GenericCallRecord& other) const {
    return responded_at < other.invoked_at;
  }
};

/// Type-erased call history of one scenario run. `before` is the family's
/// compare() lifted to handles; `obligated` is the family's pair filter for
/// the timestamp property (bounded-universe families release ordered pairs
/// outside their recycling window; unbounded families obligate every pair).
struct GenericCallLog {
  std::vector<GenericCallRecord> records;
  std::function<bool(std::size_t, std::size_t)> before;
  std::function<std::string(std::size_t)> ts_repr;
  std::function<bool(const GenericCallRecord&, const GenericCallRecord&)>
      obligated;
  /// `before` is a strict total order (its comparator declares
  /// verify::DeclaresTotalOrder) and `obligated` holds for every pair, so the
  /// checkers may sort instead of visiting every pair.
  bool total_order = false;

  [[nodiscard]] std::size_t size() const { return records.size(); }
};

}  // namespace stamped::api
