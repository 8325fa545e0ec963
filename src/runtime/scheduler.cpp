#include "runtime/scheduler.hpp"

#include "util/assert.hpp"

namespace stamped::runtime {

std::uint64_t run_script(ISystem& sys, std::span<const int> schedule) {
  for (int pid : schedule) {
    STAMPED_ASSERT_MSG(!sys.finished(pid),
                       "schedule names finished process " << pid);
    sys.step(pid);
  }
  return schedule.size();
}

std::uint64_t run_round_robin(ISystem& sys, std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  const int n = sys.num_processes();
  bool progressed = true;
  while (steps < max_steps && progressed) {
    progressed = false;
    for (int p = 0; p < n && steps < max_steps; ++p) {
      if (sys.finished(p)) continue;
      sys.step(p);
      ++steps;
      progressed = true;
    }
  }
  return steps;
}

std::uint64_t run_random(ISystem& sys, util::Rng& rng,
                         std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  const int n = sys.num_processes();
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(n));
  while (steps < max_steps) {
    live.clear();
    for (int p = 0; p < n; ++p) {
      if (!sys.finished(p)) live.push_back(p);
    }
    if (live.empty()) break;
    const int pid =
        live[static_cast<std::size_t>(rng.next_below(live.size()))];
    sys.step(pid);
    ++steps;
  }
  return steps;
}

bool run_solo_until_calls_complete(ISystem& sys, int pid, std::uint64_t calls,
                                   std::uint64_t max_steps) {
  const std::uint64_t target = sys.calls_completed(pid) + calls;
  std::uint64_t steps = 0;
  while (sys.calls_completed(pid) < target) {
    if (sys.finished(pid) || steps >= max_steps) return false;
    sys.step(pid);
    ++steps;
  }
  return true;
}

bool run_solo_until_poised_outside(ISystem& sys, int pid,
                                   const std::unordered_set<int>& covered,
                                   std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (steps <= max_steps) {
    if (sys.finished(pid)) return false;
    const PendingOp op = sys.pending(pid);
    if (op.is_write() && covered.find(op.reg) == covered.end()) return true;
    if (steps == max_steps) return false;
    sys.step(pid);
    ++steps;
  }
  return false;
}

bool run_solo_until(ISystem& sys, int pid,
                    const std::function<bool(ISystem&)>& predicate,
                    std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!predicate(sys)) {
    if (sys.finished(pid) || steps >= max_steps) return false;
    sys.step(pid);
    ++steps;
  }
  return true;
}

CrashStats run_crash_restart(ISystem& sys, util::Rng& rng,
                             const CrashPlan& plan, std::uint64_t max_steps) {
  STAMPED_ASSERT(plan.crashes >= 0);
  STAMPED_ASSERT(plan.min_victim_steps <= plan.max_victim_steps);
  const int n = sys.num_processes();
  CrashStats st;
  std::vector<char> down(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> up_at(static_cast<std::size_t>(n), 0);
  std::uint64_t tick = 0;

  // One pending crash event at a time: victim + cumulative own-step
  // threshold, drawn relative to the victim's current step count so a
  // restarted process can be re-victimized without firing instantly.
  int remaining = plan.crashes;
  int victim = -1;
  std::uint64_t victim_dies_at = 0;
  const auto draw_event = [&] {
    victim = -1;
    if (remaining == 0) return;
    --remaining;
    victim = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    victim_dies_at =
        sys.steps_taken_by(victim) + plan.min_victim_steps +
        rng.next_below(plan.max_victim_steps - plan.min_victim_steps + 1);
  };
  draw_event();

  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(n));
  while (st.steps < max_steps) {
    ++tick;
    // Fire (or drop) due crash events. A victim that finished or is already
    // down cannot be killed by this event; redraw until one can fire.
    while (victim >= 0 &&
           (down[static_cast<std::size_t>(victim)] || sys.finished(victim))) {
      draw_event();
    }
    if (victim >= 0 && sys.steps_taken_by(victim) >= victim_dies_at) {
      down[static_cast<std::size_t>(victim)] = 1;
      ++st.crashes;
      if (plan.restart) {
        up_at[static_cast<std::size_t>(victim)] = tick + plan.restart_delay;
      }
      draw_event();
    }
    // Recover victims whose downtime elapsed.
    if (plan.restart) {
      for (int p = 0; p < n; ++p) {
        if (down[static_cast<std::size_t>(p)] &&
            tick >= up_at[static_cast<std::size_t>(p)]) {
          sys.restart_process(p);
          ++st.restarts;
          down[static_cast<std::size_t>(p)] = 0;
        }
      }
    }
    // Random step among live, non-crashed processes.
    live.clear();
    bool any_down = false;
    for (int p = 0; p < n; ++p) {
      if (down[static_cast<std::size_t>(p)]) {
        any_down = true;
      } else if (!sys.finished(p)) {
        live.push_back(p);
      }
    }
    if (live.empty()) {
      // With restarts pending, let ticks elapse until a victim recovers;
      // without, the run is over (crashed processes never step again).
      if (plan.restart && any_down) continue;
      break;
    }
    sys.step(live[static_cast<std::size_t>(rng.next_below(live.size()))]);
    ++st.steps;
  }

  st.survivors_finished = true;
  for (int p = 0; p < n; ++p) {
    if (down[static_cast<std::size_t>(p)]) {
      ++st.crashed_down;
    } else if (!sys.finished(p)) {
      st.survivors_finished = false;
    }
  }
  return st;
}

JitterStats run_jittered(ISystem& sys, util::Rng& rng, const JitterSpec& spec,
                         std::uint64_t max_steps) {
  STAMPED_ASSERT(spec.stall_period >= 1);
  STAMPED_ASSERT(spec.max_stall >= 1);
  const int n = sys.num_processes();
  JitterStats st;
  std::vector<std::uint64_t> stalled_until(static_cast<std::size_t>(n), 0);
  std::vector<int> eligible;
  eligible.reserve(static_cast<std::size_t>(n));
  while (st.steps < max_steps) {
    ++st.ticks;
    eligible.clear();
    bool any_live = false;
    for (int p = 0; p < n; ++p) {
      if (sys.finished(p)) continue;
      any_live = true;
      if (stalled_until[static_cast<std::size_t>(p)] < st.ticks) {
        eligible.push_back(p);
      }
    }
    if (!any_live) break;
    // Every live process is mid-stall: the tick clock advances, nobody
    // steps. Stalls are finite, so this always unblocks.
    if (eligible.empty()) continue;
    const int pid =
        eligible[static_cast<std::size_t>(rng.next_below(eligible.size()))];
    sys.step(pid);
    ++st.steps;
    if (!sys.finished(pid) && rng.chance(1, spec.stall_period)) {
      stalled_until[static_cast<std::size_t>(pid)] =
          st.ticks + 1 + rng.next_below(spec.max_stall);
      ++st.stalls;
    }
  }
  return st;
}

std::unique_ptr<ISystem> replay(const SystemFactory& factory,
                                std::span<const int> schedule) {
  auto sys = factory();
  STAMPED_ASSERT(sys != nullptr);
  run_script(*sys, schedule);
  return sys;
}

void check_no_failures(ISystem& sys) {
  for (int p = 0; p < sys.num_processes(); ++p) {
    if (sys.failed(p)) {
      STAMPED_ASSERT_MSG(false, "process " << p << " failed: "
                                           << sys.failure_message(p));
    }
  }
}

}  // namespace stamped::runtime
