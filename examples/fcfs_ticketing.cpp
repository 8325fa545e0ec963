// First-come-first-served ticketing — the classic timestamp application
// (the paper's introduction: FCFS fairness, mutual exclusion, k-exclusion).
//
//   build/examples/fcfs_ticketing
//
// Customers (threads) arrive at a service desk in waves; each takes a
// timestamp from the long-lived max-scan object on arrival. The desk serves
// customers in compare() order. Because the object preserves happens-before,
// a customer who completed ticketing strictly before another is always
// served first — FCFS fairness for non-overlapping arrivals.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "atomicmem/atomic_memory.hpp"
#include "core/maxscan_longlived.hpp"
#include "native/recorder.hpp"
#include "runtime/coro.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;

constexpr int kCustomers = 6;
constexpr int kWaves = 3;

struct Ticket {
  int customer = 0;
  int wave = 0;
  std::int64_t stamp = 0;
};

/// Customer c takes its ticket of `wave`: one max-scan getTS, recorded in
/// the customer's own arena (its call index is the wave).
runtime::ProcessTask take_ticket(atomicmem::DirectCtx<std::int64_t>& ctx,
                                 int c, int wave,
                                 native::CallArena<std::int64_t>* arena) {
  (void)co_await core::maxscan_getts(ctx, c, kCustomers, wave, arena);
}

}  // namespace

int main() {
  atomicmem::AtomicMemory<std::int64_t> mem(kCustomers, 0);
  std::atomic<std::uint64_t> clock{0};
  native::HistoryRecorder<std::int64_t> recorder(kCustomers);

  // Waves arrive strictly one after another (a barrier between waves); the
  // customers inside one wave race each other. Each customer's arena is
  // written by one thread at a time: the barrier orders the waves.
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::jthread> arrivals;
    for (int c = 0; c < kCustomers; ++c) {
      arrivals.emplace_back([&, c, wave] {
        atomicmem::DirectCtx<std::int64_t> ctx(&mem, c, &clock);
        auto task = take_ticket(ctx, c, wave, &recorder.arena(c));
        task.handle().resume();
      });
    }
  }

  // The history holds every ticket; a record's call index is its wave.
  const auto history = recorder.merged();
  std::vector<Ticket> tickets;
  for (const auto& rec : history) {
    tickets.push_back({rec.pid, rec.call_index, rec.ts});
  }
  std::sort(tickets.begin(), tickets.end(), [](const Ticket& a,
                                               const Ticket& b) {
    if (a.stamp != b.stamp) return core::compare(a.stamp, b.stamp);
    return a.customer < b.customer;  // tie-break concurrent arrivals
  });

  std::cout << "service order (FCFS by timestamp):\n";
  bool fair = true;
  int last_wave_served = 0;
  for (const auto& t : tickets) {
    std::cout << "  serve customer " << t.customer << " (wave " << t.wave
              << ", ticket " << t.stamp << ")\n";
    // Waves are separated by happens-before, so wave numbers must be served
    // in non-decreasing order.
    fair = fair && t.wave >= last_wave_served;
    last_wave_served = std::max(last_wave_served, t.wave);
  }

  auto report = verify::check_timestamp_property(history, core::Compare{});
  std::cout << "\nFCFS across waves: " << (fair ? "OK" : "VIOLATED")
            << "; timestamp property: " << (report.ok() ? "OK" : "VIOLATED")
            << "\n";
  return (fair && report.ok()) ? 0 : 1;
}
