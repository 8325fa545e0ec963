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
//    heap node. Writers allocate a node, exchange it in, and push the old
//    node onto a Treiber retirement stack.
//
// Layout. The registers are the only shared state of the paper's model, so
// nothing else a register op touches may be shared between threads. One
// heap block holds the reclaim counters and then every cell, each in its own
// 128-byte line pair (kLinePair): different writers' cells never share the
// pair that the adjacent-line prefetcher moves together, and the counters
// that node-cell writers bump stay off the pair of the read-only cell-array
// pointer. The block is a plain byte allocation aligned by hand, not an
// over-aligned new. DirectCtx adds a per-process op counter and nothing
// shared: only stamp() touches the one shared event clock, twice per call.
//
// Reclamation. Retired nodes used to be freed only at destruction, so long
// native runs grew memory with write count. They are now reclaimed by a
// global epoch domain (detail::EpochDomain): readers pin the current epoch
// around every dereferencing access, retirees are stamped with the epoch at
// unlink time, and writers trim the stacks once kTrimThreshold retirees are
// outstanding — freeing exactly the nodes stamped before every pinned
// epoch. quiesce() (the native backend calls it after joining its workers)
// frees everything unconditionally. retired_nodes() / arena_bytes() expose
// the accounting.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Process-wide epoch domain for node-cell reclamation, shared by every
/// AtomicMemory instance (epochs are per-thread facts, not per-memory ones).
/// A thread pins the current global epoch in its own cache-line-padded slot
/// for the duration of one dereferencing access; trimmers free a retired
/// node only when its retirement epoch precedes every pinned epoch.
///
/// Safety argument (all epoch traffic is seq_cst, so one total order): a
/// reader that still holds node N announced its pin BEFORE loading N from
/// the cell, which is before the write that unlinked N, which is before N's
/// retirement push. A trimmer drains the retirement stack FIRST and scans
/// the pin slots after, so draining N places the scan after the reader's
/// announcement in the total order — the scan must observe that pin (or a
/// later one by the same thread), and min_pinned() <= pin epoch <= N's
/// retirement epoch keeps N alive. The unpin store / pin-scan load pair on
/// the slot also gives TSan the happens-before edge from the reader's last
/// dereference to the eventual free.
class EpochDomain {
 public:
  /// Upper bound on threads concurrently touching node-cell memories. Slots
  /// are leased per thread and released at thread exit, so this bounds live
  /// threads, not lifetime thread count.
  static constexpr int kMaxSlots = 256;
  /// min_pinned() result when no thread is pinned: every retiree is free.
  static constexpr std::uint64_t kNoPins = ~std::uint64_t{0};

  [[nodiscard]] static EpochDomain& instance() {
    // Leaked deliberately: thread_local leases of detached or late-exiting
    // threads may release their slot after static destruction has begun.
    static EpochDomain* const domain = new EpochDomain();
    return *domain;
  }

  /// RAII pin: announces the current global epoch in the calling thread's
  /// slot. Re-entrant (nested pins keep the outermost announcement).
  class Pin {
   public:
    // Bodies follow Lease's definition below (it is only declared here).
    inline Pin();
    inline ~Pin();
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    struct Lease;
    friend class EpochDomain;

    [[nodiscard]] static inline Lease& thread_lease();

    Lease& lease_;
  };

  /// Epoch stamped onto a node at retirement.
  [[nodiscard]] std::uint64_t retire_epoch() const {
    return global_.load(std::memory_order_seq_cst);
  }

  /// Minimum epoch announced by any pinned thread (kNoPins when idle).
  /// Trimmers MUST drain retirement stacks before calling this — see the
  /// class comment's ordering argument.
  [[nodiscard]] std::uint64_t min_pinned() const {
    std::uint64_t min = kNoPins;
    for (const Slot& s : slots_) {
      const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < min) min = e;
    }
    return min;
  }

  /// Advances the global epoch once every pinned thread has observed the
  /// current one, so retirees of successive trim rounds age out: a node
  /// stamped in round k becomes reclaimable when all pins reach round k+1.
  void try_advance() {
    std::uint64_t g = global_.load(std::memory_order_seq_cst);
    for (const Slot& s : slots_) {
      const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < g) return;
    }
    global_.compare_exchange_strong(g, g + 1, std::memory_order_seq_cst);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};  ///< announced epoch; 0 = idle
    std::atomic<bool> claimed{false};
  };

  EpochDomain() = default;

  std::atomic<std::uint64_t> global_{1};
  std::array<Slot, kMaxSlots> slots_{};
};

struct EpochDomain::Pin::Lease {
  Slot* slot = nullptr;
  int depth = 0;

  Lease() {
    for (Slot& s : instance().slots_) {
      bool expected = false;
      if (s.claimed.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        slot = &s;
        return;
      }
    }
    STAMPED_ASSERT_MSG(false, "more than " << kMaxSlots
                                           << " threads concurrently pinned "
                                              "in the epoch domain");
  }
  ~Lease() {
    if (slot != nullptr) {
      slot->epoch.store(0, std::memory_order_seq_cst);
      slot->claimed.store(false, std::memory_order_release);
    }
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
};

inline EpochDomain::Pin::Lease& EpochDomain::Pin::thread_lease() {
  thread_local Lease lease;
  return lease;
}

inline EpochDomain::Pin::Pin() : lease_(thread_lease()) {
  if (lease_.depth++ == 0) {
    lease_.slot->epoch.store(instance().global_.load(std::memory_order_seq_cst),
                             std::memory_order_seq_cst);
  }
}

inline EpochDomain::Pin::~Pin() {
  if (--lease_.depth == 0) {
    lease_.slot->epoch.store(0, std::memory_order_seq_cst);
  }
}

/// Shared allocation/retirement accounting of one AtomicMemory's node cells
/// (retired_nodes() / arena_bytes() read these; trivially zero for inline
/// cells, which never allocate).
struct ReclaimCounters {
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> reclaimed{0};
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

/// Pointer-swap cell for arbitrary (copyable) values. Old nodes are retired
/// to a Treiber stack and reclaimed by epoch (see EpochDomain): callers pin
/// around dereferencing accesses; the owning AtomicMemory drains and frees.
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
    std::uint64_t epoch;  ///< EpochDomain epoch at retirement (0 while live)
    Node* next;
  };

  AtomicCell(const V& initial, ReclaimCounters* counters)
      : current_(new Node{initial, 0, 0, nullptr}), counters_(counters) {
    counters_->allocated.fetch_add(1, std::memory_order_relaxed);
  }

  AtomicCell(const AtomicCell&) = delete;
  AtomicCell& operator=(const AtomicCell&) = delete;

  ~AtomicCell() {
    reclaim(drain_retired(), EpochDomain::kNoPins);
    delete current_.load(std::memory_order_relaxed);
    counters_->reclaimed.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] V load() const {
    return current_.load(std::memory_order_seq_cst)->value;
  }

  [[nodiscard]] runtime::Versioned<V> load_versioned() const {
    const Node* node = current_.load(std::memory_order_seq_cst);
    return {node->value, node->version};
  }

  void store(V v) { retire(swap_in(std::move(v))); }

  [[nodiscard]] V exchange(V v) {
    Node* old = swap_in(std::move(v));
    V result = old->value;
    retire(old);
    return result;
  }

  /// Pops the whole retirement stack; each trimmer owns what it pops, so
  /// concurrent trims never double-free.
  [[nodiscard]] Node* drain_retired() {
    return retired_.exchange(nullptr, std::memory_order_seq_cst);
  }

  /// Frees every drained node stamped before `min_pinned_epoch`; survivors
  /// are spliced back onto the stack for a later trim round.
  void reclaim(Node* head, std::uint64_t min_pinned_epoch) {
    Node* survivors = nullptr;
    Node* survivors_tail = nullptr;
    std::uint64_t freed = 0;
    while (head != nullptr) {
      Node* next = head->next;
      if (head->epoch < min_pinned_epoch) {
        delete head;
        ++freed;
      } else {
        head->next = survivors;
        if (survivors == nullptr) survivors_tail = head;
        survivors = head;
      }
      head = next;
    }
    if (freed > 0) {
      counters_->reclaimed.fetch_add(freed, std::memory_order_relaxed);
    }
    if (survivors != nullptr) {
      Node* cur = retired_.load(std::memory_order_relaxed);
      do {
        survivors_tail->next = cur;
      } while (!retired_.compare_exchange_weak(cur, survivors,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
    }
  }

 private:
  Node* swap_in(V v) {
    // Versions are unique per node (fetch_add), which is all load_versioned
    // needs; they need not be installation-ordered under concurrent writers.
    Node* fresh = new Node{
        std::move(v), versions_.fetch_add(1, std::memory_order_seq_cst) + 1,
        0, nullptr};
    counters_->allocated.fetch_add(1, std::memory_order_relaxed);
    return current_.exchange(fresh, std::memory_order_seq_cst);
  }

  void retire(Node* node) {
    node->epoch = EpochDomain::instance().retire_epoch();
    Node* head = retired_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!retired_.compare_exchange_weak(head, node,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
    counters_->retired.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<Node*> current_;
  std::atomic<Node*> retired_{nullptr};
  std::atomic<std::uint64_t> versions_{0};
  ReclaimCounters* counters_;
};

}  // namespace detail

/// An array of atomic MWMR registers for real-thread executions.
template <class V>
class AtomicMemory {
 public:
  /// Outstanding retired nodes that trigger a writer-driven trim. The
  /// epoch-counted trim keeps retirement bounded near this (two trim rounds
  /// in the worst case — retirees of the current epoch survive one round).
  static constexpr std::uint64_t kTrimThreshold = 512;

  AtomicMemory(int num_registers, const V& initial)
      : num_registers_(num_registers) {
    STAMPED_ASSERT(num_registers > 0);
    // One plain allocation, over-sized by a pair and aligned by hand: an
    // over-aligned new would go through glibc's memalign path, which
    // bypasses the thread cache and slows every build of a memory.
    const std::size_t bytes =
        sizeof(CounterSlot) +
        static_cast<std::size_t>(num_registers) * sizeof(CellSlot);
    std::size_t space = bytes + kLinePair - 1;
    block_ = std::make_unique_for_overwrite<std::byte[]>(space);
    void* base = block_.get();
    (void)std::align(kLinePair, bytes, base, space);  // the slack suffices
    counters_ = &(new (base) CounterSlot())->value;
    cells_ = reinterpret_cast<CellSlot*>(static_cast<std::byte*>(base) +
                                         sizeof(CounterSlot));
    int built = 0;
    try {
      for (; built < num_registers; ++built) {
        if constexpr (detail::kInlineAtomic<V>) {
          new (&cells_[built]) CellSlot(initial);
        } else {
          new (&cells_[built]) CellSlot(initial, counters_);
        }
      }
    } catch (...) {
      std::destroy_n(cells_, built);
      throw;
    }
  }

  // The counters are trivially destructible and outlive the cells, whose
  // destructors update them.
  ~AtomicMemory() { std::destroy_n(cells_, num_registers_); }

  AtomicMemory(const AtomicMemory&) = delete;
  AtomicMemory& operator=(const AtomicMemory&) = delete;

  [[nodiscard]] int num_registers() const { return num_registers_; }

  // Only the dereferencing accesses pin: loads follow the current-node
  // pointer of node cells, so the node must outlive the copy-out. Writers
  // touch no shared node (store allocates; swap dereferences only the node
  // it unlinked itself, which nobody else can retire).
  [[nodiscard]] V read(int reg) const {
    if constexpr (detail::kInlineAtomic<V>) {
      return cell(reg).load();
    } else {
      detail::EpochDomain::Pin pin;
      return cell(reg).load();
    }
  }
  [[nodiscard]] runtime::Versioned<V> versioned_read(int reg) const {
    if constexpr (detail::kInlineAtomic<V>) {
      return cell(reg).load_versioned();
    } else {
      detail::EpochDomain::Pin pin;
      return cell(reg).load_versioned();
    }
  }
  void write(int reg, V v) {
    cell(reg).store(std::move(v));
    maybe_trim();
  }
  [[nodiscard]] V swap(int reg, V v) {
    V old = cell(reg).exchange(std::move(v));
    maybe_trim();
    return old;
  }
  [[nodiscard]] V fetch_add(int reg, V addend)
    requires std::is_arithmetic_v<V>
  {
    return cell(reg).fetch_add(addend);
  }

  /// Retired nodes not yet reclaimed (0 for inline-cell memories).
  [[nodiscard]] std::uint64_t retired_nodes() const {
    if constexpr (detail::kInlineAtomic<V>) {
      return 0;
    } else {
      return counters_->retired.load(std::memory_order_relaxed) -
             counters_->reclaimed.load(std::memory_order_relaxed);
    }
  }

  /// Heap bytes held by node cells — current nodes plus the unreclaimed
  /// retirement backlog (0 for inline-cell memories, which allocate nothing).
  [[nodiscard]] std::uint64_t arena_bytes() const {
    if constexpr (detail::kInlineAtomic<V>) {
      return 0;
    } else {
      const std::uint64_t live =
          counters_->allocated.load(std::memory_order_relaxed) -
          counters_->reclaimed.load(std::memory_order_relaxed);
      return live * sizeof(typename detail::AtomicCell<V>::Node);
    }
  }

  /// Quiesce point: frees every retired node unconditionally. The caller
  /// certifies no thread is concurrently accessing this memory — the native
  /// backend calls this after joining its workers.
  void quiesce() {
    if constexpr (!detail::kInlineAtomic<V>) {
      for (int i = 0; i < num_registers_; ++i) {
        Cell& c = cells_[i].value;
        c.reclaim(c.drain_retired(), detail::EpochDomain::kNoPins);
      }
    }
  }

 private:
  using Cell = detail::AtomicCell<V>;
  using CellSlot = detail::LinePairSlot<Cell>;
  using CounterSlot = detail::LinePairSlot<detail::ReclaimCounters>;
  // Layout guard: each slot must cover whole line pairs, so that no later
  // field can put two writers' words back on one pair unnoticed.
  static_assert(sizeof(CellSlot) % kLinePair == 0 &&
                    alignof(CellSlot) % kLinePair == 0,
                "a register cell must own its line pair");
  static_assert(sizeof(CounterSlot) % kLinePair == 0 &&
                    alignof(CounterSlot) % kLinePair == 0,
                "the reclaim counters must own their line pair");

  void maybe_trim() {
    if constexpr (!detail::kInlineAtomic<V>) {
      const std::uint64_t outstanding =
          counters_->retired.load(std::memory_order_relaxed) -
          counters_->reclaimed.load(std::memory_order_relaxed);
      if (outstanding >= kTrimThreshold) trim_retired();
    }
  }

  /// Epoch-counted trim. Drain-before-scan is the safety hinge: a node
  /// drained here was retired — hence unlinked — before the pin scan ran, so
  /// any reader still dereferencing it announced its pin before the unlink
  /// and min_pinned() observes that pin (see EpochDomain).
  void trim_retired() {
    if constexpr (!detail::kInlineAtomic<V>) {
      auto& dom = detail::EpochDomain::instance();
      dom.try_advance();
      std::vector<typename Cell::Node*> drained;
      drained.reserve(static_cast<std::size_t>(num_registers_));
      for (int i = 0; i < num_registers_; ++i) {
        drained.push_back(cells_[i].value.drain_retired());
      }
      const std::uint64_t min = dom.min_pinned();
      for (int i = 0; i < num_registers_; ++i) {
        cells_[i].value.reclaim(drained[static_cast<std::size_t>(i)], min);
      }
    }
  }

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
  detail::ReclaimCounters* counters_ = nullptr;  ///< block_'s first pair
  CellSlot* cells_ = nullptr;                    ///< one pair per register
};

/// Memory context for real threads: same interface as runtime::SimCtx, but
/// every awaiter is immediately ready, so coroutines never suspend. A
/// register op touches its register and this ctx's own counters, nothing
/// else shared; the shared clock is reached only through stamp().
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

  /// Invocation/response event stamp, unique and totally ordered across
  /// threads: the one order a recorded history needs to be checkable.
  std::uint64_t stamp() {
    return clock_->fetch_add(1, std::memory_order_seq_cst) + 1;
  }
  /// Events stamped so far. Register ops do not tick the clock, so unlike
  /// SimCtx::steps_now this is no global step count; a native scan's
  /// linearize_step carries it, and nothing on this backend orders by it.
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
};

}  // namespace stamped::atomicmem
