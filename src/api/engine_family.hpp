// Derives a TimestampFamily from its engine (api/engine.hpp): the
// descriptor fields and all four builders come from the one definition.
//
//   const api::TimestampFamily fam = api::engine_family<MaxscanEngine>();
//
//   - make(spec) / make_native(spec): an EngineInstance<E> on the simulator
//     or on real threads;
//   - factory(spec): log-free simulated systems for replay and exploration,
//     each with an engine of its own;
//   - make_sharded(spec): the sharded service over E (shard::make_sharded).
//
// One EngineInstance<E> serves both backends. It owns the engine and one
// history recorder, and builds its system from one program loop over
// E::getts. Every stamp is unique on either backend (a native invocation
// may take the half-step after its process's previous response instead of
// a clock draw), and on the simulator each record is appended right after
// its response stamp, so the recorder's merge is the order in which the
// calls completed, on either backend. Tests and benches that need the
// family's own types build an EngineInstance<E> directly and read its typed
// system (sim()), its typed records (records()) and its engine (engine(),
// for per-run statistics).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/family.hpp"
#include "native/recorder.hpp"
#include "runtime/coro.hpp"
#include "shard/sharded_service.hpp"
#include "util/assert.hpp"

namespace stamped::api {

/// An unsharded scenario's geometry: all spec.n processes on E's registers.
template <class E>
[[nodiscard]] Geometry engine_geometry(const ScenarioSpec& spec) {
  return {spec.n, E::registers(spec.n, spec)};
}

/// Process `pid`'s program: `calls` getTS calls on engine `e`, recorded into
/// `log` unless it is null.
template <class E, class Ctx>
runtime::ProcessTask engine_program(Ctx& ctx, E* e, Geometry g, int pid,
                                    int calls,
                                    native::CallArena<typename E::Ts>* log) {
  for (int k = 0; k < calls; ++k) co_await e->getts(ctx, g, pid, k, log);
}

/// A live scenario of engine E on either backend; see file comment.
template <class E>
class EngineInstance final : public FamilyInstance {
 public:
  EngineInstance(const ScenarioSpec& spec, Backend backend)
      : engine_(spec), recorder_(spec.n) {
    const Geometry g = engine_geometry<E>(spec);
    auto sys = make_scenario_system(
        backend, spec.recording, spec.n, g.regs, E::initial_value(),
        [e = &engine_, rec = &recorder_, g,
         calls = spec.calls_per_process](auto& ctx, int p) {
          return engine_program(ctx, e, g, p, calls, &rec->arena(p));
        });
    sys_ = std::move(sys.sim);
    native_sys_ = std::move(sys.native);
  }

  /// The programs point into engine_ and recorder_, so the simulated system
  /// (a base member, otherwise destroyed after them) goes first.
  ~EngineInstance() override { sys_.reset(); }

  [[nodiscard]] GenericCallLog calls() const override {
    return erase_call_log<typename E::Ts>(recorder_.merged(),
                                          typename E::Cmp{}, engine_.filter());
  }

  [[nodiscard]] Metrics metrics() const override { return engine_.metrics(); }

  [[nodiscard]] bool native() const override { return native_sys_ != nullptr; }

  NativeRunStats run_native(int threads) override {
    STAMPED_ASSERT_MSG(native_sys_ != nullptr,
                       "run_native on a simulated instance");
    NativeRunStats stats = native_sys_->run(threads);
    stats.recorder_arena_bytes = recorder_.arena_bytes();
    return stats;
  }

  // Typed read access, for tests and benches that inspect register values,
  // exact timestamps or the engine's statistics.

  /// The simulated system (not taken, not native).
  [[nodiscard]] runtime::System<typename E::V>& sim() {
    STAMPED_ASSERT_MSG(native_sys_ == nullptr, "sim() on a native instance");
    return static_cast<runtime::System<typename E::V>&>(system());
  }

  /// Every recorded call with its typed timestamp, in completion order.
  [[nodiscard]] std::vector<runtime::CallRecord<typename E::Ts>> records()
      const {
    return recorder_.merged();
  }

  [[nodiscard]] const E& engine() const { return engine_; }

 private:
  E engine_;
  native::HistoryRecorder<typename E::Ts> recorder_;
  std::unique_ptr<native::NativeSystem<typename E::V>> native_sys_;
};

/// The TimestampFamily of engine E; see file comment.
template <class E>
[[nodiscard]] TimestampFamily engine_family() {
  using Log = native::CallArena<typename E::Ts>;
  TimestampFamily fam;
  fam.name = E::kInfo.name;
  fam.summary = E::kInfo.summary;
  fam.paper_ref = E::kInfo.paper_ref;
  fam.lifetime = E::kInfo.lifetime;
  fam.universe = E::kInfo.universe;
  fam.max_calls_per_process = E::kInfo.max_calls_per_process;
  fam.writes_full_allocation = E::kInfo.writes_full_allocation;
  fam.footprint = E::footprint();
  fam.registers_allocated = [](const ScenarioSpec& spec) {
    return std::int64_t{E::registers(spec.n, spec)};
  };
  fam.make = [](const ScenarioSpec& spec) -> std::unique_ptr<FamilyInstance> {
    return std::make_unique<EngineInstance<E>>(spec, Backend::kSim);
  };
  fam.make_native =
      [](const ScenarioSpec& spec) -> std::unique_ptr<FamilyInstance> {
    return std::make_unique<EngineInstance<E>>(spec, Backend::kNative);
  };
  // The programs own the engine, so each system's statistics are its own:
  // explorer workers share none, and no replay grows another's.
  fam.factory = [](const ScenarioSpec& spec) -> runtime::SystemFactory {
    return [spec]() -> std::unique_ptr<runtime::ISystem> {
      const Geometry g = engine_geometry<E>(spec);
      return make_scenario_system(
                 Backend::kSim, spec.recording, spec.n, g.regs,
                 E::initial_value(),
                 [e = std::make_shared<E>(spec), g,
                  calls = spec.calls_per_process](auto& ctx, int p) {
                   return engine_program(ctx, e.get(), g, p, calls,
                                         static_cast<Log*>(nullptr));
                 })
          .sim;
    };
  };
  fam.make_sharded = &shard::make_sharded<E>;
  return fam;
}

}  // namespace stamped::api
