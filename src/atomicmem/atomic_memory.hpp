// Real-thread register backend.
//
// AtomicMemory<V> is an array of atomic multi-writer multi-reader registers
// backed by std::atomic. The same coroutine algorithms that run on the
// simulator run here unchanged: DirectCtx's awaiters complete immediately
// (await_ready() == true), so a getTS coroutine executes synchronously on
// the calling thread with every register access compiled down to an atomic
// load/store.
//
// Storage (CP.100 note: this is the library's only lock-free code):
//  - trivially-copyable V of at most 8 bytes: a plain std::atomic<V>;
//  - anything else (e.g. core::TsRecord): an atomic pointer to an immutable
//    heap node. Writers allocate a node, exchange it in, and link the node
//    it displaced behind it.
//
// Layout. The registers are the only shared state of the paper's model, so
// nothing else a register op touches may be shared between threads. One
// heap block holds every cell, each in its own 128-byte line pair
// (kLinePair): different writers' cells never share the pair that the
// adjacent-line prefetcher moves together. The block is a plain byte
// allocation aligned by hand, not an over-aligned new. DirectCtx adds a
// per-process op counter and nothing shared: only stamps touch the one
// shared event clock, once per call after a process's first (its response;
// the invocation takes the half-step after the previous response) and
// twice per first or one-shot call.
//
// Reclamation. Displaced nodes are freed only once the memory is quiescent,
// so no node a reader can reach is freed under it and a read is one pointer
// load and a copy, with nothing announced. Each cell's nodes form one chain,
// current node first, linked by the writers that displaced them. quiesce()
// (the native backend calls it once every program has finished) frees each
// chain behind its current node, and the destructor frees the rest;
// retired_nodes() / arena_bytes() walk the chains. Only Algorithm 4's
// single-use objects hold records, and one object of M calls displaces at
// most M·(m − 1) nodes (docs/runtime.md, "Memory reclamation").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "runtime/coro.hpp"
#include "runtime/value.hpp"
#include "util/assert.hpp"

namespace stamped::atomicmem {

/// Bytes of one adjacent-line prefetch pair. Intel's spatial prefetcher
/// moves 64-byte lines in aligned pairs, so two threads writing words 64
/// bytes apart still contend: a word that one thread writes on the hot path
/// gets a whole pair to itself.
inline constexpr std::size_t kLinePair = 128;

namespace detail {

template <class V>
inline constexpr bool kInlineAtomic =
    std::is_trivially_copyable_v<V> && sizeof(V) <= 8;

/// A T alone on its line pair. Constructed only by placement new into
/// storage aligned by hand (AtomicMemory's block), never by an aligned
/// operator new.
template <class T>
struct alignas(kLinePair) LinePairSlot {
  template <class... Args>
  explicit LinePairSlot(Args&&... args) : value(std::forward<Args>(args)...) {}

  T value;
};

/// Cell for small trivially copyable values. Plain loads stay single atomic
/// ops (wait-free); writes additionally maintain a seqlock-style version
/// counter so load_versioned() can return a consistent {value, version} pair
/// for the version-clock scan. The counter holds 2*version while idle and an
/// odd value while a write is in flight; writers serialize on it with a CAS
/// (uncontended in the SWMR register layouts every algorithm here uses, a
/// short spin under MWMR write races — writes are then lock-based, which is
/// an honest cost of versioning an 8-byte cell without DWCAS).
template <class V, bool Inline = kInlineAtomic<V>>
class AtomicCell {
 public:
  explicit AtomicCell(const V& initial) : value_(initial) {}

  // seq_cst throughout: the paper's model is *atomic* (linearizable)
  // registers, and clients like the bakery lock rely on store-load ordering
  // that acquire/release does not provide.
  [[nodiscard]] V load() const {
    return value_.load(std::memory_order_seq_cst);
  }

  /// Consistent snapshot of value and write-version: retries while a write
  /// is in flight or raced the value load.
  [[nodiscard]] runtime::Versioned<V> load_versioned() const {
    for (;;) {
      const std::uint64_t before = seq_.load(std::memory_order_seq_cst);
      if ((before & 1u) != 0) continue;  // write in flight
      V v = value_.load(std::memory_order_seq_cst);
      if (seq_.load(std::memory_order_seq_cst) == before) {
        return {std::move(v), before >> 1};
      }
    }
  }

  void store(V v) {
    const std::uint64_t s = writer_enter();
    value_.store(v, std::memory_order_seq_cst);
    writer_exit(s);
  }
  [[nodiscard]] V exchange(V v) {
    const std::uint64_t s = writer_enter();
    V old = value_.exchange(v, std::memory_order_seq_cst);
    writer_exit(s);
    return old;
  }
  [[nodiscard]] V fetch_add(V addend)
    requires std::is_arithmetic_v<V>
  {
    const std::uint64_t s = writer_enter();
    V old = value_.fetch_add(addend, std::memory_order_seq_cst);
    writer_exit(s);
    return old;
  }

 private:
  /// Bumps the seqlock counter to odd; returns the even value it left.
  std::uint64_t writer_enter() {
    std::uint64_t s = seq_.load(std::memory_order_relaxed);
    for (;;) {
      if ((s & 1u) != 0) {
        s = seq_.load(std::memory_order_relaxed);
        continue;
      }
      if (seq_.compare_exchange_weak(s, s + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
        return s;
      }
    }
  }
  void writer_exit(std::uint64_t entered) {
    seq_.store(entered + 2, std::memory_order_seq_cst);
  }

  std::atomic<V> value_;
  std::atomic<std::uint64_t> seq_{0};
};

/// Pointer-swap cell for arbitrary (copyable) values. A write installs a
/// fresh immutable node and links the node it displaced behind it; nothing
/// is freed until the cell is quiescent (free_displaced(), the destructor),
/// so a reader copies the current value without announcing itself.
/// Versioning is free here: every write installs a fresh immutable node
/// carrying a unique version, so load_versioned() is one pointer load, and
/// equal versions across two loads imply the same node — hence no
/// intervening write (nodes are never re-installed).
template <class V>
class AtomicCell<V, false> {
 public:
  struct Node {
    V value;
    std::uint64_t version;
    Node* prev;  ///< the node this one displaced; written by its installer
  };

  explicit AtomicCell(const V& initial)
      : current_(new Node{initial, 0, nullptr}) {}

  AtomicCell(const AtomicCell&) = delete;
  AtomicCell& operator=(const AtomicCell&) = delete;

  ~AtomicCell() { free_chain(current_.load(std::memory_order_relaxed)); }

  [[nodiscard]] V load() const {
    return current_.load(std::memory_order_seq_cst)->value;
  }

  [[nodiscard]] runtime::Versioned<V> load_versioned() const {
    const Node* node = current_.load(std::memory_order_seq_cst);
    return {node->value, node->version};
  }

  void store(V v) { (void)swap_in(std::move(v)); }

  [[nodiscard]] V exchange(V v) { return swap_in(std::move(v))->value; }

  // The chain is linked without synchronization, so the two members below
  // may run only while no thread writes the cell, and free_displaced()
  // only while none reads it either.

  /// Nodes displaced since the last free_displaced().
  [[nodiscard]] std::uint64_t displaced() const {
    std::uint64_t count = 0;
    for (const Node* n = current_.load(std::memory_order_relaxed)->prev;
         n != nullptr; n = n->prev) {
      ++count;
    }
    return count;
  }

  /// Frees every displaced node; the current one stays.
  void free_displaced() {
    Node* cur = current_.load(std::memory_order_relaxed);
    free_chain(cur->prev);
    cur->prev = nullptr;
  }

 private:
  static void free_chain(Node* node) {
    while (node != nullptr) {
      Node* prev = node->prev;
      delete node;
      node = prev;
    }
  }

  /// Installs a node holding `v` and returns the node it displaced.
  Node* swap_in(V v) {
    // Versions are unique per node (fetch_add), which is all load_versioned
    // needs; they need not be installation-ordered under concurrent writers.
    Node* fresh = new Node{
        std::move(v), versions_.fetch_add(1, std::memory_order_seq_cst) + 1,
        nullptr};
    Node* old = current_.exchange(fresh, std::memory_order_seq_cst);
    // The exchange hands each displaced node to exactly one writer, so the
    // links form one chain from the current node back to the initial one.
    // Readers never follow them.
    fresh->prev = old;
    return old;
  }

  std::atomic<Node*> current_;
  std::atomic<std::uint64_t> versions_{0};
};

}  // namespace detail

/// An array of atomic MWMR registers for real-thread executions.
template <class V>
class AtomicMemory {
 public:
  AtomicMemory(int num_registers, const V& initial)
      : num_registers_(num_registers) {
    STAMPED_ASSERT(num_registers > 0);
    // One plain allocation, over-sized by a pair and aligned by hand: an
    // over-aligned new would go through glibc's memalign path, which
    // bypasses the thread cache and slows every build of a memory.
    const std::size_t bytes =
        static_cast<std::size_t>(num_registers) * sizeof(CellSlot);
    std::size_t space = bytes + kLinePair - 1;
    block_ = std::make_unique_for_overwrite<std::byte[]>(space);
    void* base = block_.get();
    (void)std::align(kLinePair, bytes, base, space);  // the slack suffices
    cells_ = static_cast<CellSlot*>(base);
    int built = 0;
    try {
      for (; built < num_registers; ++built) {
        new (&cells_[built]) CellSlot(initial);
      }
    } catch (...) {
      std::destroy_n(cells_, built);
      throw;
    }
  }

  ~AtomicMemory() { std::destroy_n(cells_, num_registers_); }

  AtomicMemory(const AtomicMemory&) = delete;
  AtomicMemory& operator=(const AtomicMemory&) = delete;

  [[nodiscard]] int num_registers() const { return num_registers_; }

  [[nodiscard]] V read(int reg) const { return cell(reg).load(); }
  [[nodiscard]] runtime::Versioned<V> versioned_read(int reg) const {
    return cell(reg).load_versioned();
  }
  void write(int reg, V v) { cell(reg).store(std::move(v)); }
  [[nodiscard]] V swap(int reg, V v) {
    return cell(reg).exchange(std::move(v));
  }
  [[nodiscard]] V fetch_add(int reg, V addend)
    requires std::is_arithmetic_v<V>
  {
    return cell(reg).fetch_add(addend);
  }

  // The accounting below walks the node cells' chains: call it only while
  // no thread writes this memory (NativeSystem reads it after quiesce()).

  /// Displaced nodes not yet freed (0 for inline-cell memories).
  [[nodiscard]] std::uint64_t retired_nodes() const {
    std::uint64_t total = 0;
    if constexpr (!detail::kInlineAtomic<V>) {
      for (int i = 0; i < num_registers_; ++i) {
        total += cells_[i].value.displaced();
      }
    }
    return total;
  }

  /// Heap bytes held by node cells — current nodes plus the displaced ones
  /// (0 for inline-cell memories, which allocate nothing).
  [[nodiscard]] std::uint64_t arena_bytes() const {
    if constexpr (detail::kInlineAtomic<V>) {
      return 0;
    } else {
      return (static_cast<std::uint64_t>(num_registers_) + retired_nodes()) *
             sizeof(typename Cell::Node);
    }
  }

  /// Quiesce point: frees every displaced node. The caller certifies that
  /// no thread is accessing this memory — the native backend calls this
  /// once every program has finished.
  void quiesce() {
    if constexpr (!detail::kInlineAtomic<V>) {
      for (int i = 0; i < num_registers_; ++i) {
        cells_[i].value.free_displaced();
      }
    }
  }

 private:
  using Cell = detail::AtomicCell<V>;
  using CellSlot = detail::LinePairSlot<Cell>;
  // Layout guard: each slot must cover whole line pairs, so that no later
  // field can put two writers' words back on one pair unnoticed.
  static_assert(sizeof(CellSlot) % kLinePair == 0 &&
                    alignof(CellSlot) % kLinePair == 0,
                "a register cell must own its line pair");

  Cell& cell(int reg) {
    STAMPED_ASSERT(reg >= 0 && reg < num_registers_);
    return cells_[reg].value;
  }
  const Cell& cell(int reg) const {
    STAMPED_ASSERT(reg >= 0 && reg < num_registers_);
    return cells_[reg].value;
  }

  // Read-only after construction; what the hot path writes lives in block_.
  int num_registers_;
  std::unique_ptr<std::byte[]> block_;
  CellSlot* cells_ = nullptr;  ///< one pair per register
};

/// Memory context for real threads: same interface as runtime::SimCtx, but
/// every awaiter is immediately ready, so coroutines never suspend. A
/// register op touches its register and this ctx's own counters, nothing
/// else shared; the shared clock is reached only through stamp() (and
/// invocation_stamp() when it cannot take a half-step).
/// NativeSystem builds one per process, on the stack of the worker that
/// runs it.
template <class V>
class DirectCtx {
 public:
  using Value = V;

  DirectCtx(AtomicMemory<V>* mem, int pid, std::atomic<std::uint64_t>* clock)
      : mem_(mem), pid_(pid), clock_(clock) {}

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] int num_registers() const { return mem_->num_registers(); }

  struct ValueAwaiter {
    V v;
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    V await_resume() { return std::move(v); }
  };
  struct VoidAwaiter {
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };

  struct VersionedAwaiter {
    runtime::Versioned<V> v;
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    runtime::Versioned<V> await_resume() { return std::move(v); }
  };

  [[nodiscard]] ValueAwaiter read(int reg) {
    bump();
    return {mem_->read(reg)};
  }
  [[nodiscard]] VersionedAwaiter versioned_read(int reg) {
    bump();
    return {mem_->versioned_read(reg)};
  }
  [[nodiscard]] VoidAwaiter write(int reg, V v) {
    bump();
    mem_->write(reg, std::move(v));
    return {};
  }
  [[nodiscard]] ValueAwaiter swap(int reg, V v) {
    bump();
    return {mem_->swap(reg, std::move(v))};
  }
  [[nodiscard]] ValueAwaiter fetch_add(int reg, V addend)
    requires std::is_arithmetic_v<V>
  {
    bump();
    return {mem_->fetch_add(reg, addend)};
  }

  /// Event stamp, unique and totally ordered across threads: the one order
  /// a recorded history needs to be checkable. Always a fresh draw: the
  /// clock's c-th draw returns the even stamp 2c.
  std::uint64_t stamp() {
    fresh_ = 2 * (clock_->fetch_add(1, std::memory_order_seq_cst) + 1);
    fresh_ops_ = ops_;
    return fresh_;
  }
  /// Invocation stamp of a getTS call. An invocation is a local event, so
  /// it may sit anywhere between this process's previous event and its
  /// first register op. If that previous event is a fresh draw 2c that no
  /// register op and no earlier invocation has followed (typically the
  /// previous call's response), the invocation takes the half-step 2c + 1
  /// with no clock RMW; otherwise it draws. A response 2a then precedes it
  /// (2a < 2c + 1) iff a ≤ c, i.e. iff that response was drawn no later
  /// than 2c, so the checkers' `<` orders no pair that real time does not.
  /// Only call starts may reuse: a response must be drawn after every
  /// event of its call, register op or not.
  std::uint64_t invocation_stamp() {
    if (fresh_ != 0 && fresh_ops_ == ops_) {
      const std::uint64_t half_step = fresh_ + 1;
      fresh_ = 0;  // each draw lends at most one half-step
      return half_step;
    }
    return stamp();
  }
  /// Clock draws so far, by every process. Register ops and half-step
  /// invocations do not draw, so unlike SimCtx::steps_now this is no
  /// global step count; a native scan's linearize_step carries it, and
  /// nothing on this backend orders by it.
  [[nodiscard]] std::uint64_t steps_now() const {
    return clock_->load(std::memory_order_relaxed);
  }
  /// Register ops this process performed.
  [[nodiscard]] std::uint64_t my_steps() const { return ops_; }
  void note_call_complete() { ++calls_; }
  [[nodiscard]] std::uint64_t calls_completed() const { return calls_; }

 private:
  void bump() { ++ops_; }

  AtomicMemory<V>* mem_;
  int pid_;
  std::atomic<std::uint64_t>* clock_;
  std::uint64_t ops_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t fresh_ = 0;      ///< last draw, 0 once lent (or none yet)
  std::uint64_t fresh_ops_ = 0;  ///< ops_ when fresh_ was drawn
};

}  // namespace stamped::atomicmem
