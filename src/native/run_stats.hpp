// RunStats: what one native run did, apart from the thread pool that ran it,
// so that api/family.hpp can name a native run's report without including
// native_system.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace stamped::native {

/// Floor for RunStats::elapsed_seconds. Tiny runs (a handful of programs on
/// a fast machine) can finish inside one steady_clock tick; dividing ops by
/// a zero or sub-tick elapsed yields inf or garbage-of-ten rates. One
/// microsecond is far below anything a thread spawn costs, so the clamp
/// never distorts a real measurement — it only keeps degenerate runs finite.
inline constexpr double kMinElapsedSeconds = 1e-6;

/// What one native run did, for ScenarioReport's native fields and the T12
/// bench. The counters are deterministic given the call counts; elapsed
/// time and the per-thread split are not (the OS schedules).
struct RunStats {
  int threads = 0;               ///< workers, the calling thread included
  /// Wall time from the first spawn to the last program's end, clamped to
  /// >= kMinElapsedSeconds so rate math (ops / elapsed) stays finite on
  /// degenerate runs.
  double elapsed_seconds = 0.0;
  std::uint64_t ops = 0;         ///< register operations (sum of my_steps)
  std::uint64_t calls = 0;       ///< completed getTS calls (note_call_complete)
  std::vector<std::uint64_t> per_thread_calls;  ///< calls by worker index
  std::uint64_t retired_nodes = 0;      ///< displaced nodes left post-quiesce
  std::uint64_t memory_arena_bytes = 0; ///< AtomicMemory heap after quiesce
  /// History recorder block bytes. NativeSystem::run leaves it 0; whoever
  /// owns the recorder (api::EngineInstance, the sharded instance) sets it.
  std::uint64_t recorder_arena_bytes = 0;

  [[nodiscard]] double ops_per_sec() const {
    return static_cast<double>(ops) /
           std::max(elapsed_seconds, kMinElapsedSeconds);
  }
  [[nodiscard]] double calls_per_sec() const {
    return static_cast<double>(calls) /
           std::max(elapsed_seconds, kMinElapsedSeconds);
  }
};

}  // namespace stamped::native
