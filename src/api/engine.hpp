// The engine interface: one definition per timestamp family.
//
// An engine is a family's single definition. It names the register value
// type V, the timestamp type Ts and its comparator Cmp, and answers:
//   - kInfo: the family's metadata (name, summary, paper reference,
//     lifetime, universe, call limit, whether a solo run writes every
//     register);
//   - footprint(): the declared register-ownership discipline;
//   - registers(width, spec): how many registers an instance seating
//     `width` processes allocates (the quantity the paper's bounds bound);
//   - initial_value(): what every register starts as;
//   - getts(ctx, geom, pid, k, log): one getTS call, a coroutine template
//     over its ctx, so the same text runs on the simulator, on real threads,
//     and rebased into a shard's register window (shard::OffsetCtx);
//   - filter(): which ordered pairs of the recorded history carry a
//     timestamp-property obligation (null: all of them);
//   - metrics(): family-specific counters for the ScenarioReport.
// A stateful engine (one holding per-run statistics) is built once per
// system from the ScenarioSpec; it is neither copied nor moved.
//
// api/engine_family.hpp derives every TimestampFamily builder from an
// engine; api/engines.hpp holds the registered ones. The sharded service
// (shard/sharded_service.hpp) runs the same engine per shard. This header
// also holds the backend step every built form shares: building the
// simulated or native system from one task maker, make_task(ctx, pid).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/family.hpp"
#include "api/scenario.hpp"
#include "native/native_system.hpp"
#include "runtime/system.hpp"

namespace stamped::api {

/// What one engine call runs against: how many processes the instance seats
/// and how many registers it owns (an unsharded scenario: spec.n and
/// E::registers(spec.n, spec); a shard: its members and its window).
struct Geometry {
  int width = 0;
  int regs = 0;
};

/// A family's metadata, as TimestampFamily carries it.
struct FamilyInfo {
  const char* name = "";
  const char* summary = "";
  const char* paper_ref = "";
  Lifetime lifetime = Lifetime::kOneShot;
  const char* universe = "";
  int max_calls_per_process = 0;  ///< 0 = unlimited
  bool writes_full_allocation = false;
};

/// Defaults an engine may inherit: the types, registers starting at V{},
/// no declared footprint, every pair obligated, no metrics. Members an
/// engine declares itself hide these.
template <class V_, class Ts_, class Cmp_>
struct EngineBase {
  using V = V_;
  using Ts = Ts_;
  using Cmp = Cmp_;

  [[nodiscard]] static V initial_value() { return V{}; }
  [[nodiscard]] static FootprintSpec footprint() { return {}; }
  [[nodiscard]] PairFilter<Ts> filter() const { return nullptr; }
  [[nodiscard]] Metrics metrics() const { return {}; }
};

/// The system one scenario runs on: a simulated runtime::System or a
/// native::NativeSystem, whichever the backend picks (the other is null).
template <class V>
struct ScenarioSystem {
  std::unique_ptr<runtime::System<V>> sim;
  std::unique_ptr<native::NativeSystem<V>> native;
};

/// Builds `processes` processes on `backend`, process p running
/// make_task(ctx, p) with that backend's ctx. A native system holds the one
/// task maker and builds each program on the worker that runs it. A
/// simulated system records in `recording` and keeps one program per
/// process, each holding a copy of make_task (restarts re-run them).
template <class V, class MakeTask>
[[nodiscard]] ScenarioSystem<V> make_scenario_system(
    Backend backend, runtime::RecordingMode recording, int processes,
    int registers, const V& initial, const MakeTask& make_task) {
  ScenarioSystem<V> sys;
  if (backend == Backend::kNative) {
    sys.native = std::make_unique<native::NativeSystem<V>>(
        registers, initial, processes, make_task);
    return sys;
  }
  using Sim = runtime::System<V>;
  std::vector<typename Sim::Program> programs;
  programs.reserve(static_cast<std::size_t>(processes));
  for (int p = 0; p < processes; ++p) {
    programs.push_back(
        [make_task, p](typename Sim::Ctx& ctx) { return make_task(ctx, p); });
  }
  sys.sim = std::make_unique<Sim>(registers, initial, std::move(programs),
                                  recording);
  return sys;
}

}  // namespace stamped::api
