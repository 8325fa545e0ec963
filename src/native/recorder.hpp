// The history recorder: how every family records its calls, on either
// backend.
//
// api::EngineInstance owns one HistoryRecorder per scenario (the sharded
// service one per shard plus one for its composed history) and gives
// process p's program the arena of p, so each completed getTS appends its
// CallRecord to an arena that only p's program writes. On real threads that
// program runs on one worker at a time, so the hot path is a bump-pointer
// store with no lock and no shared state at all; on the simulator the
// programs take turns on one thread. The shared completion clock
// (DirectCtx::stamp, one atomic fetch_add; SimCtx::stamp on the simulator)
// is the only cross-thread traffic per call, and invocations are stamped
// on the same scale: by a draw, or on real threads by the half-step right
// after the process's previous response (DirectCtx::invocation_stamp).
// Stamps are therefore unique and totally ordered, which is what lets the
// merge sort records into the real-time order the checkers need.
//
// merged() runs at quiesce, after every program has finished: plain reads
// of per-process arenas with no concurrent writers (NativeSystem::run's
// acquire of the last program's completion count is the synchronization),
// then one stable sort by completion stamp. Nothing in the recorder blocks,
// spins, or retries at any point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/history.hpp"
#include "util/assert.hpp"

namespace stamped::native {

/// Single-writer append-only arena of completed-call records. Blocks are
/// heap-allocated on demand and never moved, so earlier records stay valid
/// while later ones are appended (no vector reallocation on the hot path).
/// Block capacities double from kFirstBlockRecords up to kMaxBlockRecords:
/// a process that makes one call (every process of a one-shot run) costs
/// one record's worth of heap, not a full block, while a long-lived process
/// soon appends into full-size blocks.
template <class Ts>
class CallArena {
 public:
  using Record = runtime::CallRecord<Ts>;

  static constexpr std::size_t kFirstBlockRecords = 1;
  static constexpr std::size_t kMaxBlockRecords = 256;

  CallArena() = default;
  CallArena(const CallArena&) = delete;
  CallArena& operator=(const CallArena&) = delete;

  /// Hot path; caller is the arena's one writer thread.
  void record(Record rec) {
    STAMPED_ASSERT_MSG(rec.invoked_at < rec.responded_at,
                       "call must span at least one event");
    if (used_ == capacity_) grow();
    blocks_.back()[used_++] = std::move(rec);
  }

  [[nodiscard]] std::size_t size() const { return sealed_ + used_; }

  [[nodiscard]] std::size_t bytes() const {
    return (sealed_ + capacity_) * sizeof(Record);
  }

  void append_to(std::vector<Record>& out) const {
    std::size_t capacity = kFirstBlockRecords;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t n = b + 1 == blocks_.size() ? used_ : capacity;
      out.insert(out.end(), blocks_[b].get(), blocks_[b].get() + n);
      capacity = next_capacity(capacity);
    }
  }

 private:
  static constexpr std::size_t next_capacity(std::size_t capacity) {
    return std::min(2 * capacity, kMaxBlockRecords);
  }

  void grow() {
    sealed_ += used_;
    capacity_ = blocks_.empty() ? kFirstBlockRecords : next_capacity(capacity_);
    blocks_.push_back(std::make_unique<Record[]>(capacity_));
    used_ = 0;
  }

  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::size_t capacity_ = 0;  ///< of the last block
  std::size_t used_ = 0;      ///< records in the last block
  std::size_t sealed_ = 0;    ///< records in the full blocks before it
};

/// One arena per process. Workers write only their own processes' arenas;
/// the merge runs after every program has finished (see file comment).
template <class Ts>
class HistoryRecorder {
 public:
  explicit HistoryRecorder(int n) {
    STAMPED_ASSERT(n > 0);
    arenas_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      arenas_.push_back(std::make_unique<CallArena<Ts>>());
    }
  }

  [[nodiscard]] CallArena<Ts>& arena(int pid) {
    STAMPED_ASSERT(pid >= 0 && pid < static_cast<int>(arenas_.size()));
    return *arenas_[static_cast<std::size_t>(pid)];
  }

  /// All records across arenas, sorted by completion stamp. Completion
  /// stamps come from the shared run clock, so they are unique and the sort
  /// produces one definite total order (stable_sort for determinism anyway).
  [[nodiscard]] std::vector<runtime::CallRecord<Ts>> merged() const {
    std::vector<runtime::CallRecord<Ts>> out;
    out.reserve(size());
    for (const auto& a : arenas_) a->append_to(out);
    std::stable_sort(out.begin(), out.end(),
                     [](const runtime::CallRecord<Ts>& a,
                        const runtime::CallRecord<Ts>& b) {
                       return a.responded_at < b.responded_at;
                     });
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& a : arenas_) total += a->size();
    return total;
  }

  [[nodiscard]] std::size_t arena_bytes() const {
    std::size_t total = 0;
    for (const auto& a : arenas_) total += a->bytes();
    return total;
  }

  [[nodiscard]] std::vector<std::uint64_t> per_arena_counts() const {
    std::vector<std::uint64_t> counts;
    counts.reserve(arenas_.size());
    for (const auto& a : arenas_) counts.push_back(a->size());
    return counts;
  }

 private:
  std::vector<std::unique_ptr<CallArena<Ts>>> arenas_;
};

}  // namespace stamped::native
