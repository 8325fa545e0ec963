#include "probes.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/registry.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "core/maxscan_longlived.hpp"
#include "core/sqrt_oneshot.hpp"
#include "core/timestamp.hpp"
#include "native/recorder.hpp"
#include "runtime/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Keeps a computed value alive without the compiler seeing a use it could
/// fold away (the Google Benchmark DoNotOptimize idiom).
template <class T>
void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over `reps` calls of `rep`, each returning one measurement.
template <class Rep>
double median_of(int reps, Rep&& rep) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) v.push_back(rep());
  return median(std::move(v));
}

/// Nanoseconds per iteration of `body(i)` over `iters` iterations.
template <class Body>
double ns_per_iter(std::uint64_t iters, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iters);
}

/// Runs one program to completion on the calling thread; DirectCtx
/// awaiters are immediately ready, so a single resume runs all of it.
void run_solo(runtime::ProcessTask task) {
  task.handle().resume();
  STAMPED_ASSERT_MSG(task.done() && !task.exception(),
                     "solo probe program did not complete cleanly");
}

template <class Ts>
double record_probe(Ts ts) {
  constexpr std::uint64_t kRecords = 1u << 16;
  return median_of(kProbeReps, [&] {
    native::CallArena<Ts> arena;
    const double ns = ns_per_iter(kRecords, [&](std::uint64_t i) {
      arena.record({0, static_cast<int>(i), ts, 2 * i + 1, 2 * i + 2});
    });
    do_not_optimize(arena.size());
    return ns;
  });
}

double maxscan_solo_probe() {
  constexpr int kN = 4;
  constexpr int kCalls = 1 << 15;
  return median_of(kProbeReps, [] {
    atomicmem::AtomicMemory<std::int64_t> mem(kN, 0);
    std::atomic<std::uint64_t> clock{0};
    atomicmem::DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
    native::CallArena<std::int64_t> arena;
    const Clock::time_point t0 = Clock::now();
    run_solo(core::maxscan_program(ctx, 0, kN, kCalls, &arena));
    return seconds_between(t0, Clock::now()) * 1e9 / kCalls;
  });
}

/// Algorithm 4 with M sequential calls of one process over the
/// ceil(2*sqrt(M)) registers a run of M calls allocates: the oneshot-native
/// round's memory shape and phase trajectory, without the overlap.
double sqrt_solo_probe() {
  constexpr int kCalls = 1024;
  const int m = core::sqrt_oneshot_registers(kCalls);
  return median_of(kProbeReps, [m] {
    atomicmem::AtomicMemory<core::TsRecord> mem(m, core::TsRecord::bottom());
    std::atomic<std::uint64_t> clock{0};
    atomicmem::DirectCtx<core::TsRecord> ctx(&mem, 0, &clock);
    native::CallArena<core::PairTimestamp> arena;
    const Clock::time_point t0 = Clock::now();
    run_solo(core::sqrt_calls_program(ctx, 0, kCalls, m, &arena,
                                      static_cast<core::SqrtStats*>(nullptr)));
    return seconds_between(t0, Clock::now()) * 1e9 / kCalls;
  });
}

double step_probe(runtime::RecordingMode mode) {
  return median_of(kStepReps, [mode] {
    auto sys = core::make_maxscan_system(4, 2000, nullptr);
    sys->set_recording_mode(mode);
    const Clock::time_point t0 = Clock::now();
    runtime::run_round_robin(*sys, std::uint64_t{1} << 32);
    const double s = seconds_between(t0, Clock::now());
    STAMPED_ASSERT(sys->all_finished());
    return s * 1e9 / static_cast<double>(sys->steps_taken());
  });
}

}  // namespace

ProbeResults run_probes(const api::TimestampFamily& family, Tracer* tracer) {
  ProbeResults res;
  const bool sqrt = family.name == "sqrt-oneshot";
  {
    Scope s(tracer, "atomicmem.probe_inline", 0);
    atomicmem::AtomicMemory<std::int64_t> mem(4, 0);
    std::atomic<std::uint64_t> clock{0};
    atomicmem::DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
    res.read_inline_ns = median_of(kProbeReps, [&] {
      return ns_per_iter(1u << 20, [&](std::uint64_t i) {
        do_not_optimize(mem.read(static_cast<int>(i & 3)));
      });
    });
    res.write_inline_ns = median_of(kProbeReps, [&] {
      return ns_per_iter(1u << 18, [&](std::uint64_t i) {
        mem.write(static_cast<int>(i & 3), static_cast<std::int64_t>(i));
      });
    });
    res.ctx_read_ns = median_of(kProbeReps, [&] {
      return ns_per_iter(1u << 20, [&](std::uint64_t i) {
        do_not_optimize(ctx.read(static_cast<int>(i & 3)).await_resume());
      });
    });
  }
  {
    // Register r holds a record whose id sequence is r+1 long, as in the
    // late phases of an Algorithm 4 run over 64 registers.
    Scope s(tracer, "atomicmem.probe_node", 0);
    constexpr int kRegs = 64;
    atomicmem::AtomicMemory<core::TsRecord> mem(kRegs,
                                                core::TsRecord::bottom());
    std::vector<core::TsId> seq;
    for (int r = 0; r < kRegs; ++r) {
      seq.push_back(core::TsId{r % 4, r});
      mem.write(r, core::TsRecord::make(seq, r + 1));
    }
    res.read_node_ns = median_of(kProbeReps, [&] {
      return ns_per_iter(1u << 16, [&](std::uint64_t i) {
        const core::TsRecord v = mem.read(static_cast<int>(i % kRegs));
        do_not_optimize(v.seq.size());
      });
    });
    const core::TsRecord inval = core::TsRecord::make({core::TsId{0, 0}}, 1);
    res.write_node_ns = median_of(kProbeReps, [&] {
      return ns_per_iter(1u << 16, [&](std::uint64_t i) {
        mem.write(static_cast<int>(i % kRegs), inval);
      });
    });
  }
  {
    Scope s(tracer, "native.probe_record", 0);
    res.record_ns = sqrt ? record_probe(core::PairTimestamp{3, 1})
                         : record_probe(std::int64_t{42});
  }
  {
    Scope s(tracer, "core.probe_getts_solo", 0);
    res.getts_solo_ns = sqrt ? sqrt_solo_probe() : maxscan_solo_probe();
  }
  {
    Scope s(tracer, "native.probe_spawn_join", 0);
    const api::TimestampFamily& maxscan = api::family("maxscan");
    api::ScenarioSpec spec;
    spec.n = kThreads;
    spec.calls_per_process = 1;
    spec.backend = api::Backend::kNative;
    spec.native_threads = kThreads;
    res.spawn_join_us = median_of(kSpawnReps, [&] {
      auto inst = maxscan.make_native(spec);
      const Clock::time_point t0 = Clock::now();
      const api::NativeRunStats st = inst->run_native(kThreads);
      const double us = seconds_between(t0, Clock::now()) * 1e6;
      STAMPED_ASSERT(st.calls == static_cast<std::uint64_t>(kThreads));
      return us;
    });
  }
  {
    Scope s(tracer, "runtime.probe_step", 0);
    res.step_ns_full = step_probe(runtime::RecordingMode::kFull);
    res.step_ns_counts = step_probe(runtime::RecordingMode::kCountsOnly);
  }
  {
    Scope s(tracer, "runtime.probe_make", 0);
    constexpr int kBatch = 64;
    const api::TimestampFamily& alg4 = api::family("sqrt-oneshot");
    const api::ScenarioSpec spec = model_check_spec(1);
    res.make_us = median_of(kProbeReps, [&] {
      std::vector<std::unique_ptr<api::FamilyInstance>> made;
      made.reserve(kBatch);
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kBatch; ++k) made.push_back(alg4.make(spec));
      return seconds_between(t0, Clock::now()) * 1e6 / kBatch;
    });
  }
  return res;
}

}  // namespace perfbench
