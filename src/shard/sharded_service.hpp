// The sharded timestamp service: client programs and the typed instance
// behind shard::ShardedInstance.
//
// One ShardedState<Engine> owns everything the programs touch: the layout
// (client -> shard routing, per-shard register windows), the global epoch
// counter, the composed per-client history, and one local history recorder
// per shard. Client programs are coroutine templates over their ctx, exactly
// like the family algorithms they wrap — the SAME program text runs under the
// deterministic simulator (runtime::System) and on real OS threads
// (native::NativeSystem).
//
// One call: route to a shard, run the family getTS there through OffsetCtx,
// draw one epoch with fetch_add, record the composed call. There is no lock
// and no wait loop, so the service is wait-free whenever its family is, and a
// client that crashes or is preempted mid-call delays nobody.
//
// Epoch linearization: the epoch is drawn after the family getTS returns,
// inside the call's interval, and every draw is unique. If call A
// happens-before call B, A drew before it responded and B draws after it was
// invoked, so B's epoch is strictly larger (docs/runtime.md, "Sharding").
//
// Restart: a restarted client re-runs its program from call 0 with fresh
// local state, as in the unsharded families; a call cut short by the crash
// never recorded a composed record, and its successor draws a fresh epoch.
// Restart is only meaningful for long-lived engines (re-running a one-shot
// program violates its own-register precondition).
//
// Writer discipline: composed arena c and inner arena (s, c) are written only
// by client c's program, so the recorders stay single-writer without locks.
// Histories are harvested after the run completes (sim: single-threaded;
// native: after every program has finished), the same post-hoc discipline as
// the plain native backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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
        drop_epoch_(spec.shard.drop_epoch),
        calls_per_client_(spec.calls_per_process),
        composed_(layout_.clients) {
    inner_.reserve(static_cast<std::size_t>(layout_.shards));
    for (int s = 0; s < layout_.shards; ++s) {
      inner_.push_back(
          std::make_unique<native::HistoryRecorder<Ts>>(layout_.clients));
    }
  }

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  [[nodiscard]] const ShardLayout& layout() const { return layout_; }
  [[nodiscard]] int calls_per_client() const { return calls_per_client_; }

  [[nodiscard]] ShardGeom geom(int s) const {
    return {layout_.width[static_cast<std::size_t>(s)],
            layout_.regs[static_cast<std::size_t>(s)]};
  }
  [[nodiscard]] int local_pid_in(int s, int client) const {
    if (layout_.rehash_calls) return client;
    STAMPED_ASSERT(layout_.shard_of[static_cast<std::size_t>(client)] == s);
    return layout_.local_pid[static_cast<std::size_t>(client)];
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
  [[nodiscard]] const native::HistoryRecorder<Composed>& composed() const {
    return composed_;
  }
  [[nodiscard]] const native::HistoryRecorder<Ts>& inner(int s) const {
    return *inner_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] native::CallArena<Ts>& inner_arena(int s, int client) {
    return inner_[static_cast<std::size_t>(s)]->arena(client);
  }

 private:
  Engine engine_;
  ShardLayout layout_;
  bool drop_epoch_;
  int calls_per_client_;
  std::atomic<std::uint64_t> epoch_{0};
  native::HistoryRecorder<Composed> composed_;
  std::vector<std::unique_ptr<native::HistoryRecorder<Ts>>> inner_;
};

/// One composed getTS by `client` (its k-th call): the family getts on the
/// routed shard, then one epoch drawn inside the call interval.
template <class Engine, class Ctx>
runtime::SubTask<int> sharded_one_call(Ctx& ctx, ShardedState<Engine>* st,
                                       int client, int k) {
  using Ts = typename Engine::Ts;
  const int s = st->layout().route(client, k);
  const std::uint64_t invoked = ctx.stamp();
  OffsetCtx<Ctx> octx(ctx, st->layout().base[static_cast<std::size_t>(s)],
                      st->layout().regs[static_cast<std::size_t>(s)]);
  const Ts local = co_await st->engine().getts(
      octx, st->geom(s), st->local_pid_in(s, client), k,
      &st->inner_arena(s, client));
  const std::uint64_t epoch = st->next_epoch();
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
    stats.total_registers = lo.total_regs;
    for (int s = 0; s < lo.shards; ++s) {
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