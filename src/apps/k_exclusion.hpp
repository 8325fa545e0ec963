// FIFO k-exclusion from a timestamp object — the generalization of mutual
// exclusion the paper's introduction cites (Fischer, Lynch, Burns & Borodin
// 1989; Afek et al. 1994): at most k processes may hold one of k identical
// resources, granted in first-come-first-served order.
//
// Same register layout idea as apps/fcfs_lock.hpp:
//   [0, n)    max-scan timestamp registers (tickets)
//   [n, 2n)   choosing[i]
//   [2n, 3n)  number[i] (0 = not contending)
//   [3n, 4n)  in_cs[i] (occupancy flags for the <= k checker)
//
// Entry rule: spin on whole-array rechecks until no process is mid-doorway
// and fewer than k contenders have a smaller (ticket, pid) tag. The classic
// bakery argument generalizes: on the admitting recheck every smaller-tag
// occupant was visible, so at most k-1 of them existed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/fcfs_lock.hpp"

namespace stamped::apps {

/// One acquire/use/release cycle of the k-exclusion object.
template <class Ctx>
runtime::SubTask<std::int64_t> kexclusion_cycle(
    Ctx& ctx, BakeryLayout layout, int pid, int round, int k, BakeryLog* log,
    native::CallArena<std::int64_t>* ts_log) {
  BakeryAcquisition acq;
  acq.pid = pid;
  acq.round = round;

  // Doorway (identical to the bakery lock).
  acq.doorway_begin = ctx.stamp();
  co_await ctx.write(layout.choosing_reg(pid), std::int64_t{1});
  const std::int64_t ticket =
      co_await core::maxscan_getts(ctx, pid, layout.n, round, ts_log);
  acq.ticket = ticket;
  co_await ctx.write(layout.number_reg(pid), ticket);
  co_await ctx.write(layout.choosing_reg(pid), std::int64_t{0});
  acq.doorway_end = ctx.stamp();

  // Entry: whole-array recheck until stable and fewer than k predecessors.
  for (;;) {
    bool stable = true;
    int preceding = 0;
    for (int j = 0; j < layout.n && stable; ++j) {
      if (j == pid) continue;
      const std::int64_t choosing = co_await ctx.read(layout.choosing_reg(j));
      if (choosing != 0) {
        stable = false;
        break;
      }
      const std::int64_t other = co_await ctx.read(layout.number_reg(j));
      if (other != 0 && (other < ticket || (other == ticket && j < pid))) {
        ++preceding;
      }
    }
    if (stable && preceding < k) break;
  }

  // Resource section.
  acq.cs_enter = ctx.stamp();
  co_await ctx.write(layout.cs_reg(pid), std::int64_t{1});
  co_await ctx.write(layout.cs_reg(pid), std::int64_t{0});
  acq.cs_exit = ctx.stamp();

  // Release.
  co_await ctx.write(layout.number_reg(pid), std::int64_t{0});
  if (log != nullptr) log->record(acq);
  ctx.note_call_complete();
  co_return ticket;
}

/// Worker: `rounds` acquire/release cycles of the k-exclusion object.
template <class Ctx>
runtime::ProcessTask kexclusion_worker_program(
    Ctx& ctx, BakeryLayout layout, int pid, int rounds, int k, BakeryLog* log,
    native::CallArena<std::int64_t>* ts_log) {
  for (int r = 0; r < rounds; ++r) {
    co_await kexclusion_cycle(ctx, layout, pid, r, k, log, ts_log);
  }
}

/// Builds an n-process k-exclusion simulation; `ts_log` as for
/// make_bakery_system.
inline std::unique_ptr<runtime::System<std::int64_t>> make_kexclusion_system(
    int n, int k, int rounds, BakeryLog* log,
    native::HistoryRecorder<std::int64_t>* ts_log = nullptr) {
  STAMPED_ASSERT(n >= 1 && k >= 1 && rounds >= 1);
  using Sys = runtime::System<std::int64_t>;
  const BakeryLayout layout{n};
  std::vector<Sys::Program> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    auto* arena = ts_log != nullptr ? &ts_log->arena(p) : nullptr;
    programs.push_back([layout, p, rounds, k, log, arena](Sys::Ctx& ctx) {
      return kexclusion_worker_program(ctx, layout, p, rounds, k, log, arena);
    });
  }
  return std::make_unique<Sys>(BakeryLayout::registers(n), std::int64_t{0},
                               std::move(programs));
}

/// Occupancy observer: at most k processes in the resource section at once.
inline void attach_kexclusion_checker(runtime::System<std::int64_t>& sys,
                                      int n, int k) {
  const BakeryLayout layout{n};
  sys.set_observer([layout, k](const runtime::System<std::int64_t>& s,
                               const runtime::TraceEntry<std::int64_t>&) {
    int occupants = 0;
    for (int i = 0; i < layout.n; ++i) {
      occupants += s.reg_value(layout.cs_reg(i)) != 0 ? 1 : 0;
    }
    STAMPED_ASSERT_MSG(occupants <= k, "k-exclusion violated: "
                                           << occupants << " > k=" << k);
  });
}

/// At no instant in stamp order may more than k resource sections be active
/// simultaneously (a sweep over enter/exit events; pairwise overlap with a
/// common section does NOT imply simultaneity).
inline std::string check_k_overlap(const std::vector<BakeryAcquisition>& log,
                                   int k) {
  std::vector<std::pair<std::uint64_t, int>> events;  // (stamp, +1/-1)
  events.reserve(log.size() * 2);
  for (const auto& a : log) {
    events.emplace_back(a.cs_enter, +1);
    events.emplace_back(a.cs_exit, -1);
  }
  std::sort(events.begin(), events.end());
  int active = 0;
  for (const auto& [stamp, delta] : events) {
    active += delta;
    if (active > k) {
      return "more than k=" + std::to_string(k) +
             " simultaneous sections (" + std::to_string(active) +
             ") at stamp " + std::to_string(stamp);
    }
  }
  return {};
}

}  // namespace stamped::apps
