// Isolated layer probes of the traced run: each times one public function
// of one layer on a single thread, in a loop whose results feed a
// do_not_optimize sink, and reports the median over several repetitions.
#pragma once

#include "api/family.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace stamped;  // NOLINT(google-build-using-namespace)

/// Repetitions behind each probe's median.
inline constexpr int kProbeReps = 7;
inline constexpr int kSpawnReps = 31;
inline constexpr int kStepReps = 5;

struct ProbeResults {
  double read_inline_ns = 0;   ///< AtomicMemory<int64_t>::read
  double write_inline_ns = 0;  ///< AtomicMemory<int64_t>::write
  double read_node_ns = 0;     ///< AtomicMemory<TsRecord>::read
  double write_node_ns = 0;    ///< AtomicMemory<TsRecord>::write
  double ctx_read_ns = 0;      ///< DirectCtx<int64_t>::read
  double record_ns = 0;        ///< CallArena<Ts>::record, the family's Ts
  double getts_solo_ns = 0;    ///< one getTS of the family, solo, recorded
  double spawn_join_us = 0;    ///< run of a 1-call maxscan n=4 instance
  double step_ns_full = 0;     ///< System<int64_t>::step, kFull recording
  double step_ns_counts = 0;   ///< System<int64_t>::step, kCountsOnly
  double make_us = 0;          ///< TimestampFamily::make, sqrt-oneshot n=4
};

/// Runs every probe; the record and getTS probes use `family` (maxscan or
/// sqrt-oneshot). Each probe is one span of `tracer`.
[[nodiscard]] ProbeResults run_probes(const api::TimestampFamily& family,
                                      Tracer* tracer);

}  // namespace perfbench
