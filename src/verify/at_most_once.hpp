// At-most-once service: no (pid, call_index) is ever answered twice.
//
// In the sharded service (src/shard/) every call is recorded once, by its own
// client, after its own getTS and epoch draw. This checker validates that on
// the recorded composed history: every completed call appears exactly once.
// A double record (two responses for the same call) is invisible to the
// ordering checkers when the duplicate labels happen to be consistent.
//
// What it does NOT guarantee: that the single recorded response is correct
// (the timestamp property and monotonicity checkers own that), or that every
// invoked call completed (run completion owns liveness). After a restart the
// SAME (pid, call_index) legitimately runs again, so the harness applies
// this checker only to runs without restarts.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "verify/hb_checker.hpp"

namespace stamped::verify {

/// Flags every (pid, call_index) that appears more than once in `records`.
/// Works over any record type exposing `pid` and `call_index` (both
/// runtime::CallRecord<Ts> and api::GenericCallRecord qualify). Reported
/// counters: ordered_pairs_checked counts the distinct (pid, call_index)
/// identities seen; concurrent_pairs and filtered_pairs stay 0.
template <class Record>
HbReport check_at_most_once_service(const std::vector<Record>& records) {
  HbReport report;
  std::unordered_map<std::uint64_t, int> seen;
  seen.reserve(records.size());
  for (const Record& r : records) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.pid)) << 32) |
        static_cast<std::uint32_t>(r.call_index);
    const int count = ++seen[key];
    if (count == 2) {
      report.violations.push_back(
          "call served more than once: pid " + std::to_string(r.pid) +
          " call " + std::to_string(r.call_index));
    }
  }
  report.ordered_pairs_checked = seen.size();
  return report;
}

}  // namespace stamped::verify
