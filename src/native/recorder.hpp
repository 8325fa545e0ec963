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
// Layout: the recorder holds its n arenas in one array, allocated once. An
// arena keeps its first record inline, so a one-call process records with
// no allocation; later records go to blocks that the writing thread
// allocates, header and records in one allocation. The fill count that
// record() bumps lives in the current block, not in the array: neighbouring
// arenas belong to processes that different workers run, and with the count
// in the array every call would write a line those workers share (on 4
// vCPUs that layout cost longlived-native about 14% of its calls/s). Past
// its first record, a process writes its slot of the array only when a
// block fills.
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
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "runtime/history.hpp"
#include "util/assert.hpp"

namespace stamped::native {

/// Single-writer append-only arena of completed-call records. The first
/// record lives inline, as the first block of one, so a process that makes
/// one call (every process of a one-shot run) records without allocating.
/// Later records go to heap blocks that the writing thread allocates (header
/// and records in one allocation) and never moves, so earlier records stay
/// valid while later ones are appended. Block capacities double from
/// kFirstBlockRecords up to kMaxBlockRecords, so a long-lived process soon
/// appends into full-size blocks. The fill count record() bumps is the
/// current block's (see file comment).
template <class Ts>
class CallArena {
 public:
  using Record = runtime::CallRecord<Ts>;

  static constexpr std::size_t kFirstBlockRecords = 1;
  static constexpr std::size_t kMaxBlockRecords = 256;

  CallArena() {}  // the inline record is constructed by its record()
  CallArena(const CallArena&) = delete;
  CallArena& operator=(const CallArena&) = delete;

  ~CallArena() {
    std::destroy_n(first_.records, first_.used);
    for (Block* b = first_.next; b != nullptr;) {
      Block* next = b->next;
      std::destroy_n(b->records, b->used);
      ::operator delete(b, block_bytes(b->capacity));
      b = next;
    }
  }

  /// Hot path; caller is the arena's one writer thread.
  void record(Record rec) {
    STAMPED_ASSERT_MSG(rec.invoked_at < rec.responded_at,
                       "call must span at least one event");
    Block* b = tail_;
    if (b->used == b->capacity) b = grow(b);
    std::construct_at(b->records + b->used, std::move(rec));
    ++b->used;
  }

  [[nodiscard]] std::size_t size() const { return sealed_ + tail_->used; }

  /// Record capacity of every block begun so far (the inline one included).
  [[nodiscard]] std::size_t bytes() const {
    if (first_.used == 0) return 0;
    return (sealed_ + tail_->capacity) * sizeof(Record);
  }

  void append_to(std::vector<Record>& out) const {
    for (const Block* b = &first_; b != nullptr; b = b->next) {
      out.insert(out.end(), b->records, b->records + b->used);
    }
  }

 private:
  struct Block {
    Record* records;
    std::size_t capacity;
    std::size_t used = 0;
    Block* next = nullptr;
  };

  // A heap block is its header followed by its records.
  static constexpr std::size_t kHeaderBytes =
      (sizeof(Block) + alignof(Record) - 1) / alignof(Record) *
      alignof(Record);
  static_assert(alignof(Record) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  static constexpr std::size_t block_bytes(std::size_t capacity) {
    return kHeaderBytes + capacity * sizeof(Record);
  }

  Block* grow(Block* full) {
    const std::size_t capacity =
        std::min(2 * full->capacity, kMaxBlockRecords);
    auto* raw = static_cast<std::byte*>(::operator new(block_bytes(capacity)));
    Block* b = ::new (raw)
        Block{reinterpret_cast<Record*>(raw + kHeaderBytes), capacity};
    full->next = b;
    sealed_ += full->used;
    tail_ = b;
    return b;
  }

  union {
    Record first_record_;  ///< the inline block's one record
  };
  Block first_{&first_record_, kFirstBlockRecords};
  Block* tail_ = &first_;    ///< the block record() appends to
  std::size_t sealed_ = 0;   ///< records in the full blocks before tail_
};

/// One arena per process, all n in one array (see file comment). Workers
/// write only their own processes' arenas; the merge runs after every
/// program has finished.
template <class Ts>
class HistoryRecorder {
 public:
  explicit HistoryRecorder(int n) : n_(n) {
    STAMPED_ASSERT(n > 0);
    arenas_ = std::make_unique<CallArena<Ts>[]>(static_cast<std::size_t>(n));
  }

  [[nodiscard]] CallArena<Ts>& arena(int pid) {
    STAMPED_ASSERT(pid >= 0 && pid < n_);
    return arenas_[static_cast<std::size_t>(pid)];
  }

  /// All records across arenas, sorted by completion stamp. Completion
  /// stamps come from the shared run clock, so they are unique and the sort
  /// produces one definite total order (stable_sort for determinism anyway).
  [[nodiscard]] std::vector<runtime::CallRecord<Ts>> merged() const {
    std::vector<runtime::CallRecord<Ts>> out;
    out.reserve(size());
    for (const CallArena<Ts>& a : arenas()) a.append_to(out);
    std::stable_sort(out.begin(), out.end(),
                     [](const runtime::CallRecord<Ts>& a,
                        const runtime::CallRecord<Ts>& b) {
                       return a.responded_at < b.responded_at;
                     });
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const CallArena<Ts>& a : arenas()) total += a.size();
    return total;
  }

  [[nodiscard]] std::size_t arena_bytes() const {
    std::size_t total = 0;
    for (const CallArena<Ts>& a : arenas()) total += a.bytes();
    return total;
  }

 private:
  [[nodiscard]] std::span<const CallArena<Ts>> arenas() const {
    return {arenas_.get(), static_cast<std::size_t>(n_)};
  }

  int n_;
  std::unique_ptr<CallArena<Ts>[]> arenas_;
};

}  // namespace stamped::native
