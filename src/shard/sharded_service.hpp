// The sharded timestamp service: client programs, the crash-tolerant
// flat-combining pass, and the typed instance behind shard::ShardedInstance.
//
// One ShardedState<Engine> owns everything the programs touch: the layout
// (client -> shard routing, per-shard register windows), the flat-combining
// slots and per-shard combiner leases, the global epoch counter, the
// composed per-client history, and one local history recorder per shard.
// Client programs are coroutine templates over their ctx, exactly like the
// family algorithms they wrap — the SAME program text runs under the
// deterministic simulator (runtime::System) and on real OS threads
// (native::NativeSystem).
//
// Fault tolerance (see flat_combiner.hpp for the lease/claim protocol):
//   - A combiner that crashes or parks while holding a shard's lease is
//     deposed after a bounded no-progress budget (ShardSpec::steal_budget)
//     and a waiter steals the lease — no schedule can wedge a shard while
//     any client still takes steps, unless ShardSpec::allow_steal is
//     explicitly off (the planted wedgeable config for differential tests).
//   - A deposed-but-alive combiner (zombie) may finish its pass later; the
//     per-request claim on FcSlot::done makes it lose every request a
//     successor already served, so service is at-most-once per (client,
//     call) by construction.
//   - Only kHasBatch engines (maxscan, fetch&add) are truly delegated —
//     their batches are zombie-safe speculations (engines.hpp). The
//     one-shot families cannot be re-executed safely, so in batched mode
//     each client runs its own getts and the combiner pass only GRANTS the
//     composing epoch: the grant pass touches no simulated registers, so it
//     is atomic under the simulator's crash adversary.
//
// Epoch linearization with interleaved generations: every pass still draws
// its ONE epoch after its collect, so a granted/served epoch was drawn
// after the request published, inside the call's interval. If call A
// happens-before call B, B's request publishes after A responded; every
// pass that can claim B collected after that publish and drew its epoch
// after A's server drew its own — so B's epoch is strictly larger no matter
// which generations' passes win the two claims. For maxscan the same
// argument runs through the own-register top-label write (engines.hpp).
//
// Restart recovery: a restarted client derives its slot sequence from the
// slot itself. An orphaned pre-crash request (request == done + 1) is
// drained — waited out and discarded, never adopted, because its response's
// epoch belongs to a call interval that ended at the crash — and only then
// is a fresh request published. Like the unsharded families, restart is
// only meaningful for long-lived engines (re-running a one-shot program
// violates its own-register precondition).
//
// Writer discipline (why the recorders stay single-writer without locks):
//   - composed arena c: written only by client c's program.
//   - inner arena (s, c), batched kHasBatch engines: written only by the
//     CLAIM WINNER of c's current request — winners of consecutive seqs are
//     chained by (record, ready release) -> client acquire -> (request
//     release) -> next winner's acquire, so writes never overlap.
//   - inner arena (s, c), batched epoch-grant engines and unbatched mode:
//     written only by client c itself.
// Histories are harvested after the run completes (sim: single-threaded;
// native: after every program has finished), the same post-hoc discipline
// as the plain native backend.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/family.hpp"
#include "api/scenario.hpp"
#include "native/native_system.hpp"
#include "native/recorder.hpp"
#include "runtime/coro.hpp"
#include "runtime/system.hpp"
#include "shard/compose.hpp"
#include "shard/engines.hpp"
#include "shard/flat_combiner.hpp"
#include "shard/offset_ctx.hpp"
#include "shard/sharded_instance.hpp"
#include "util/assert.hpp"
#include "verify/cross_shard.hpp"

namespace stamped::shard {

template <class Engine>
class ShardedState {
 public:
  using V = typename Engine::V;
  using Ts = typename Engine::Ts;
  using Cmp = typename Engine::Cmp;
  using Composed = ComposedTs<Ts>;

  explicit ShardedState(const api::ScenarioSpec& spec)
      : engine_(spec),
        layout_(ShardLayout::make(
            spec.n, spec.shard.shards, spec.shard.rehash_calls,
            [&](int w) { return engine_.shard_registers(w, spec); })),
        batched_(spec.shard.batched),
        drop_epoch_(spec.shard.drop_epoch),
        spin_budget_(spec.shard.spin_budget),
        steal_budget_(spec.shard.steal_budget),
        allow_steal_(spec.shard.allow_steal),
        calls_per_client_(spec.calls_per_process),
        slots_(static_cast<std::size_t>(layout_.shards) *
               static_cast<std::size_t>(layout_.clients)),
        ctl_(static_cast<std::size_t>(layout_.shards)),
        composed_(layout_.clients) {
    STAMPED_ASSERT_MSG(spec.shard.spin_budget >= 0,
                       "ShardSpec::spin_budget must be >= 0");
    STAMPED_ASSERT_MSG(spec.shard.steal_budget >= 1,
                       "ShardSpec::steal_budget must be >= 1");
    inner_.reserve(static_cast<std::size_t>(layout_.shards));
    for (int s = 0; s < layout_.shards; ++s) {
      inner_.push_back(
          std::make_unique<native::HistoryRecorder<Ts>>(layout_.clients));
    }
  }

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  [[nodiscard]] const ShardLayout& layout() const { return layout_; }
  [[nodiscard]] bool batched() const { return batched_; }
  [[nodiscard]] int calls_per_client() const { return calls_per_client_; }
  [[nodiscard]] int spin_budget() const { return spin_budget_; }
  [[nodiscard]] int steal_budget() const { return steal_budget_; }
  [[nodiscard]] bool allow_steal() const { return allow_steal_; }

  [[nodiscard]] ShardGeom geom(int s) const {
    return {layout_.width[static_cast<std::size_t>(s)],
            layout_.regs[static_cast<std::size_t>(s)]};
  }
  [[nodiscard]] int local_pid_in(int s, int client) const {
    if (layout_.rehash_calls) return client;
    STAMPED_ASSERT(layout_.shard_of[static_cast<std::size_t>(client)] == s);
    return layout_.local_pid[static_cast<std::size_t>(client)];
  }

  [[nodiscard]] FcSlot<Ts>& slot(int s, int client) {
    return slots_[static_cast<std::size_t>(s) *
                      static_cast<std::size_t>(layout_.clients) +
                  static_cast<std::size_t>(client)];
  }
  [[nodiscard]] ShardCtl& ctl(int s) {
    return ctl_[static_cast<std::size_t>(s)];
  }

  /// The global epoch draw. drop_epoch is the planted mis-composition for
  /// the cross-shard checker's differential test: every call reports epoch
  /// 0, so the composed label degenerates to the bare local label.
  [[nodiscard]] std::uint64_t next_epoch() {
    if (drop_epoch_) return 0;
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  [[nodiscard]] native::CallArena<Composed>& composed_arena(int client) {
    return composed_.arena(client);
  }
  [[nodiscard]] native::HistoryRecorder<Composed>& composed() {
    return composed_;
  }
  [[nodiscard]] const native::HistoryRecorder<Composed>& composed() const {
    return composed_;
  }
  [[nodiscard]] native::HistoryRecorder<Ts>& inner(int s) {
    return *inner_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const native::HistoryRecorder<Ts>& inner(int s) const {
    return *inner_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] native::CallArena<Ts>& inner_arena(int s, int client) {
    return inner(s).arena(client);
  }

  /// Full-service publication for delegated (kHasBatch) engines: win the
  /// claim, then — as the unique server of this (client, call) — write the
  /// response, record the inner history on the requester's arena, count the
  /// call, and release `ready`. No co_await between claim and ready, so on
  /// the simulator the whole block is atomic under the crash adversary. A
  /// lost claim means a pass of another generation already served this
  /// request; touch nothing.
  template <class Ctx>
  bool publish_served(Ctx& ctx, int s, const BatchReq& rq,
                      std::uint64_t epoch, Ts local) {
    FcSlot<Ts>& sl = slot(s, rq.client);
    if (!sl.claim(rq.seq)) {
      ctl(s).note_claim_loss();
      return false;
    }
    sl.resp_epoch = epoch;
    sl.resp_local = local;
    inner_arena(s, rq.client)
        .record({rq.local_pid, rq.call_index, local, rq.invoked,
                 ctx.stamp()});
    ctx.note_call_complete();
    sl.ready.store(rq.seq, std::memory_order_release);
    return true;
  }

  /// Epoch-only publication for epoch-grant batching (the collect-free
  /// families): the client already executed its own getts and recorded the
  /// inner history; the winner hands it the post-collect epoch.
  bool publish_granted(int s, const BatchReq& rq, std::uint64_t epoch) {
    FcSlot<Ts>& sl = slot(s, rq.client);
    if (!sl.claim(rq.seq)) {
      ctl(s).note_claim_loss();
      return false;
    }
    sl.resp_epoch = epoch;
    sl.ready.store(rq.seq, std::memory_order_release);
    return true;
  }

 private:
  Engine engine_;
  ShardLayout layout_;
  bool batched_;
  bool drop_epoch_;
  int spin_budget_;
  int steal_budget_;
  bool allow_steal_;
  int calls_per_client_;
  std::vector<FcSlot<Ts>> slots_;
  std::vector<ShardCtl> ctl_;
  std::atomic<std::uint64_t> epoch_{0};
  native::HistoryRecorder<Composed> composed_;
  std::vector<std::unique_ptr<native::HistoryRecorder<Ts>>> inner_;
};

/// One combining pass over shard s by client `me`, who holds the lease (or
/// believes it does — a deposed zombie runs the same code and simply loses
/// its claims). Collect, THEN draw the epoch (see flat_combiner.hpp for why
/// this order is the correctness hinge), then execute, then claim-and-
/// publish. Returns the number of requests THIS pass actually served.
template <class Engine, class Ctx>
runtime::SubTask<int> sharded_combine_pass(Ctx& ctx, ShardedState<Engine>* st,
                                           int s, int me) {
  using Ts = typename Engine::Ts;
  ShardCtl& ctl = st->ctl(s);
  ctl.beat();
  std::vector<BatchReq> batch;
  for (int c : st->layout().members[static_cast<std::size_t>(s)]) {
    FcSlot<Ts>& sl = st->slot(s, c);
    const std::uint64_t r = sl.request.load(std::memory_order_acquire);
    if (r > sl.done.load(std::memory_order_relaxed)) {
      batch.push_back({c, st->local_pid_in(s, c),
                       sl.call_index.load(std::memory_order_relaxed), r,
                       sl.invoked.load(std::memory_order_relaxed)});
    }
  }
  if (batch.empty()) co_return 0;
  const std::uint64_t epoch = st->next_epoch();
  int served = 0;
  if constexpr (Engine::kHasBatch) {
    const ShardGeom g = st->geom(s);
    OffsetCtx<Ctx> octx(ctx, st->layout().base[static_cast<std::size_t>(s)],
                        st->layout().regs[static_cast<std::size_t>(s)]);
    std::vector<Ts> out(batch.size());
    co_await st->engine().batch(octx, g, st->local_pid_in(s, me), batch, out);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (st->publish_served(ctx, s, batch[i], epoch, out[i])) {
        ++served;
        ctl.beat();
      }
    }
  } else {
    // Epoch-grant pass: no registers, no co_await — collect, one epoch,
    // claims. Atomic under the simulator's crash/jitter adversaries, and a
    // zombie grantor is harmless (its epoch was drawn after its collect,
    // so it is still inside every claimed call's interval).
    for (const BatchReq& rq : batch) {
      if (st->publish_granted(s, rq, epoch)) {
        ++served;
        ctl.beat();
      }
    }
  }
  if (served > 0) ctl.note_pass(static_cast<std::uint64_t>(served));
  co_return served;
}

/// Waits until slot (s, client) has been served through `seq`, combining
/// and — after a bounded no-progress budget — stealing the shard's lease as
/// needed. Termination does not depend on any other process: the
/// self-combine arm serves the caller's own request, and with allow_steal a
/// held lease whose (word, heartbeat) shows no movement for steal_budget
/// probes is taken over. With allow_steal off this loop can spin forever
/// behind a crashed holder — exactly the wedge the differential tests pin.
template <class Engine, class Ctx>
runtime::SubTask<int> fc_await_served(Ctx& ctx, ShardedState<Engine>* st,
                                      int s, int client, std::uint64_t seq) {
  using Ts = typename Engine::Ts;
  FcSlot<Ts>& sl = st->slot(s, client);
  ShardCtl& ctl = st->ctl(s);
  std::uint64_t watched_word = 0;
  std::uint64_t watched_beat = 0;
  int idle = 0;
  int spins = 0;
  for (;;) {
    if (sl.ready.load(std::memory_order_acquire) >= seq) co_return 0;
    const std::uint64_t lease = ctl.try_acquire(client);
    if (lease != 0) {
      co_await sharded_combine_pass(ctx, st, s, client);
      (void)ctl.release(lease);
      continue;
    }
    const std::uint64_t w = ctl.lease.load(std::memory_order_acquire);
    const std::uint64_t hb = ctl.heartbeat.load(std::memory_order_relaxed);
    if (w != watched_word || hb != watched_beat) {
      watched_word = w;
      watched_beat = hb;
      idle = 0;
    } else if (++idle >= st->steal_budget()) {
      idle = 0;
      ctl.note_expiry();
      if (st->allow_steal() && ShardCtl::held(w)) {
        const std::uint64_t stolen = ctl.steal(client, w);
        if (stolen != 0) {
          co_await sharded_combine_pass(ctx, st, s, client);
          (void)ctl.release(stolen);
          continue;
        }
      }
    }
    if constexpr (kRealThreadCtx<Ctx>) {
      // Bounded spin, then park politely: the lock holder is doing our
      // work; burning the core only delays it on small machines.
      if (++spins >= st->spin_budget()) {
        std::this_thread::yield();
        spins = 0;
      }
    } else {
      // One scheduler step per probe so the simulator can run the holder.
      (void)co_await ctx.read(0);
    }
  }
}

/// One composed getTS by `client` (its k-th call). Batched: publish to the
/// routed shard's slot and wait through fc_await_served (for collect-free
/// engines the client first runs its own getts and only the epoch is
/// requested — epoch-grant batching). Unbatched: run the family getts
/// directly, then draw an epoch inside the call interval.
template <class Engine, class Ctx>
runtime::SubTask<int> sharded_one_call(Ctx& ctx, ShardedState<Engine>* st,
                                       int client, int k) {
  using Ts = typename Engine::Ts;
  const int s = st->layout().route(client, k);
  const std::uint64_t invoked = ctx.stamp();
  std::uint64_t epoch = 0;
  Ts local{};
  if (!st->batched()) {
    OffsetCtx<Ctx> octx(ctx, st->layout().base[static_cast<std::size_t>(s)],
                        st->layout().regs[static_cast<std::size_t>(s)]);
    local = co_await st->engine().getts(octx, st->geom(s),
                                        st->local_pid_in(s, client), k,
                                        &st->inner_arena(s, client));
    epoch = st->next_epoch();
  } else {
    if constexpr (!Engine::kHasBatch) {
      // Epoch-grant batching: one-shot algorithms cannot be re-executed by
      // a deposed combiner, so the client executes (and records) its own
      // getts and delegates only the epoch draw.
      OffsetCtx<Ctx> octx(ctx,
                          st->layout().base[static_cast<std::size_t>(s)],
                          st->layout().regs[static_cast<std::size_t>(s)]);
      local = co_await st->engine().getts(octx, st->geom(s),
                                          st->local_pid_in(s, client), k,
                                          &st->inner_arena(s, client));
    }
    FcSlot<Ts>& sl = st->slot(s, client);
    // Restart recovery: the slot, not the call index, carries the sequence.
    // An orphaned pre-crash request is drained and its response discarded —
    // its epoch belongs to a call interval that ended at the crash.
    const std::uint64_t r = sl.request.load(std::memory_order_relaxed);
    if (r > sl.done.load(std::memory_order_relaxed)) {
      co_await fc_await_served(ctx, st, s, client, r);
    }
    const std::uint64_t seq = r + 1;
    sl.invoked.store(invoked, std::memory_order_relaxed);
    sl.call_index.store(k, std::memory_order_relaxed);
    sl.request.store(seq, std::memory_order_release);
    co_await fc_await_served(ctx, st, s, client, seq);
    epoch = sl.resp_epoch;
    if constexpr (Engine::kHasBatch) local = sl.resp_local;
  }
  st->composed_arena(client).record(
      {client, k, ComposedTs<Ts>{epoch, s, local}, invoked, ctx.stamp()});
  co_return 0;
}

/// Client c's whole program: calls_per_client composed getTS calls.
template <class Engine, class Ctx>
runtime::ProcessTask sharded_client_program(Ctx& ctx,
                                            ShardedState<Engine>* st,
                                            int client) {
  for (int k = 0; k < st->calls_per_client(); ++k) {
    co_await sharded_one_call(ctx, st, client, k);
  }
}

template <class Engine>
class TypedShardedInstance final : public ShardedInstance {
 public:
  using V = typename Engine::V;
  using Ts = typename Engine::Ts;
  using Cmp = typename Engine::Cmp;
  using Composed = ComposedTs<Ts>;

  explicit TypedShardedInstance(const api::ScenarioSpec& spec)
      : st_(std::make_unique<ShardedState<Engine>>(spec)) {
    const ShardLayout& lo = st_->layout();
    if (spec.backend == api::Backend::kNative) {
      std::vector<typename native::NativeSystem<V>::Program> programs;
      programs.reserve(static_cast<std::size_t>(lo.clients));
      for (int c = 0; c < lo.clients; ++c) {
        programs.push_back(
            [st = st_.get(), c](atomicmem::DirectCtx<V>& ctx) {
              return sharded_client_program(ctx, st, c);
            });
      }
      native_sys_ = std::make_unique<native::NativeSystem<V>>(
          lo.total_regs, Engine::initial_value(), std::move(programs));
    } else {
      using Sys = runtime::System<V>;
      std::vector<typename Sys::Program> programs;
      programs.reserve(static_cast<std::size_t>(lo.clients));
      for (int c = 0; c < lo.clients; ++c) {
        programs.push_back([st = st_.get(), c](typename Sys::Ctx& ctx) {
          return sharded_client_program(ctx, st, c);
        });
      }
      sim_sys_ = std::make_unique<Sys>(lo.total_regs, Engine::initial_value(),
                                       std::move(programs));
    }
  }

  [[nodiscard]] bool native() const override {
    return native_sys_ != nullptr;
  }

  [[nodiscard]] runtime::ISystem& system() override {
    STAMPED_ASSERT_MSG(sim_sys_ != nullptr,
                       "sharded instance was built for the native backend");
    return *sim_sys_;
  }

  void set_native_op_hook(NativeOpHook hook) override {
    STAMPED_ASSERT_MSG(native_sys_ != nullptr,
                       "op hooks intercept real-thread register ops; build "
                       "the instance for Backend::kNative");
    native_sys_->set_op_hook(std::move(hook));
  }

  [[nodiscard]] std::uint64_t lease_word(int s) const override {
    return const_cast<ShardedState<Engine>*>(st_.get())
        ->ctl(s)
        .lease.load(std::memory_order_acquire);
  }

  [[nodiscard]] int lease_owner(int s) const override {
    const std::uint64_t w = lease_word(s);
    return ShardCtl::held(w) ? ShardCtl::owner(w) : -1;
  }

  api::NativeRunStats run_native(int threads) override {
    STAMPED_ASSERT_MSG(native_sys_ != nullptr,
                       "sharded instance was built for the simulator");
    native::RunStats raw = native_sys_->run(threads);
    api::NativeRunStats stats;
    stats.threads = raw.threads;
    stats.elapsed_seconds = raw.elapsed_seconds;
    stats.ops = raw.ops;
    stats.calls = raw.calls;
    stats.per_thread_calls = std::move(raw.per_thread_calls);
    stats.retired_nodes = raw.retired_nodes;
    stats.memory_arena_bytes = raw.memory_arena_bytes;
    stats.recorder_arena_bytes = recorder_bytes();
    return stats;
  }

  [[nodiscard]] api::GenericCallLog composed_calls() const override {
    return api::erase_call_log<Composed>(st_->composed().merged(),
                                         composed_compare());
  }

  [[nodiscard]] api::GenericCallLog shard_calls(int s) const override {
    return api::erase_call_log<Ts>(st_->inner(s).merged(),
                                   st_->engine().compare(),
                                   st_->engine().filter());
  }

  [[nodiscard]] verify::HbReport cross_shard_monotonicity() const override {
    return verify::check_cross_shard_monotonicity(
        st_->composed().merged(), composed_compare(),
        [](const runtime::CallRecord<Composed>& r) { return r.ts.shard; });
  }

  [[nodiscard]] ShardRunStats shard_stats() const override {
    const ShardLayout& lo = st_->layout();
    ShardRunStats stats;
    stats.shards = lo.shards;
    stats.clients = lo.clients;
    stats.batched = st_->batched();
    stats.total_registers = lo.total_regs;
    for (int s = 0; s < lo.shards; ++s) {
      const ShardCtl& c = const_cast<ShardedState<Engine>*>(st_.get())->ctl(s);
      stats.combiner_passes += c.passes.load(std::memory_order_relaxed);
      stats.combined_calls += c.combined.load(std::memory_order_relaxed);
      stats.max_batch = std::max(
          stats.max_batch, c.max_batch.load(std::memory_order_relaxed));
      stats.lease_steals += c.steals.load(std::memory_order_relaxed);
      stats.lease_expiries += c.expiries.load(std::memory_order_relaxed);
      stats.claim_losses +=
          c.claim_losses.load(std::memory_order_relaxed);
      stats.per_shard_calls.push_back(st_->inner(s).size());
      stats.per_shard_clients.push_back(
          lo.rehash_calls
              ? lo.clients
              : static_cast<int>(
                    lo.members[static_cast<std::size_t>(s)].size()));
    }
    return stats;
  }

  [[nodiscard]] api::Metrics metrics() const override {
    return st_->engine().metrics();
  }

 private:
  [[nodiscard]] ComposedCompare<Ts, Cmp> composed_compare() const {
    return ComposedCompare<Ts, Cmp>{st_->engine().compare()};
  }

  [[nodiscard]] std::uint64_t recorder_bytes() const {
    std::uint64_t total = st_->composed().arena_bytes();
    for (int s = 0; s < st_->layout().shards; ++s) {
      total += st_->inner(s).arena_bytes();
    }
    return total;
  }

  std::unique_ptr<ShardedState<Engine>> st_;
  std::unique_ptr<runtime::System<V>> sim_sys_;
  std::unique_ptr<native::NativeSystem<V>> native_sys_;
};

/// TimestampFamily::make_sharded builder for engine type E.
template <class E>
[[nodiscard]] std::unique_ptr<ShardedInstance> make_sharded(
    const api::ScenarioSpec& spec) {
  STAMPED_ASSERT_MSG(spec.shard.shards >= 1,
                     "make_sharded needs ScenarioSpec::shard.shards >= 1");
  return std::make_unique<TypedShardedInstance<E>>(spec);
}

}  // namespace stamped::shard
