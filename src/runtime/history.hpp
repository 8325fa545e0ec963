// Method-call histories and the happens-before relation.
//
// Programs record every completed method call (getTS) as a CallRecord, into
// their process's native::CallArena (native/recorder.hpp) on either backend.
// A call g1 happens before g2 (paper: g1 -> g2) iff g1's response event
// precedes g2's invocation event. Event stamps come from SimCtx::stamp() in
// simulation or from a shared atomic counter under real threads; in both
// cases stamps are strictly monotone across events, so
// `responded_at < invoked_at` captures the real-time precedence relation
// soundly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stamped::runtime {

/// One completed method call that returned a timestamp of type Ts.
template <class Ts>
struct CallRecord {
  int pid = -1;
  int call_index = 0;  ///< k for the k-th call by this process (0-based)
  Ts ts{};
  std::uint64_t invoked_at = 0;
  std::uint64_t responded_at = 0;

  /// Paper's happens-before: this call's response precedes other's invocation.
  [[nodiscard]] bool happens_before(const CallRecord& other) const {
    return responded_at < other.invoked_at;
  }
};

/// Renders a schedule as a compact string, e.g. "0 1 1 2" (debugging aid).
std::string schedule_to_string(const std::vector<int>& schedule,
                               std::size_t max_entries = 64);

/// Parses a whitespace-separated schedule string (inverse of the above for
/// short schedules); throws invariant_error on malformed input.
std::vector<int> parse_schedule(const std::string& text);

}  // namespace stamped::runtime
