// Composed timestamps for the sharded service (beyond the source paper).
//
// The paper's objects serve a small fixed n. The service scales past that by
// routing clients to independent per-shard family instances and composing
// globally comparable timestamps as (shard epoch, shard, local label) — the
// Haldar–Vitányi composition idea (PAPERS.md, cs/0108002) with a single
// global epoch counter in place of a vector clock:
//
//   - `epoch` is drawn from one global fetch&add by every call, after its
//     family getTS returns and so inside the call's [invoked, responded)
//     interval (docs/runtime.md, "Sharding"). A happens-before pair always
//     sees strictly increasing epochs, and the epoch field alone settles
//     every cross-call obligation.
//   - every draw is unique, so a healthy run never produces equal epochs.
//     On equal epochs the comparator falls back to the family's own
//     comparator within one shard and returns false both ways across shards,
//     which is exactly what makes the planted drop_epoch mis-composition
//     (every epoch 0) detectable (see verify::check_cross_shard_monotonicity).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "util/assert.hpp"

namespace stamped::shard {

/// A globally comparable timestamp: the shard-local label `local` lifted by
/// the global call epoch. `shard` is carried for diagnostics and for the
/// cross-shard checker; compare never orders across shards within one epoch.
template <class Ts>
struct ComposedTs {
  std::uint64_t epoch = 0;
  std::int32_t shard = 0;
  Ts local{};

  friend bool operator==(const ComposedTs&, const ComposedTs&) = default;

  [[nodiscard]] std::string repr() const {
    std::ostringstream os;
    os << "(e" << epoch << ",s" << shard << ","
       << runtime::value_repr(local) << ")";
    return os.str();
  }
};

/// compare() of the composed object: epoch order first; within one epoch
/// (only drop_epoch produces equal epochs) the family's own comparator on
/// the local labels, which is only meaningful within one shard.
template <class Ts, class Cmp>
struct ComposedCompare {
  Cmp local{};

  [[nodiscard]] bool operator()(const ComposedTs<Ts>& a,
                                const ComposedTs<Ts>& b) const {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.shard != b.shard) return false;  // cross-shard, same epoch: no order
    return local(a.local, b.local);
  }
};

/// splitmix64 finalizer: the client-id hash behind shard routing. Cheap,
/// stateless, and well-mixed so consecutive client ids spread across shards.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Static routing: the shard a client's every call lands on.
[[nodiscard]] constexpr int shard_of_client(int client, int shards) {
  return static_cast<int>(mix64(static_cast<std::uint64_t>(client)) %
                          static_cast<std::uint64_t>(shards));
}

/// Per-call routing (ShardSpec::rehash_calls): session-less load balancing
/// where each call of a client may land on a different shard. This is the
/// mode that exercises shard hops — and with them the cross-shard
/// monotonicity obligation.
[[nodiscard]] constexpr int shard_of_call(int client, int call_index,
                                          int shards) {
  return static_cast<int>(
      mix64(mix64(static_cast<std::uint64_t>(client)) ^
            static_cast<std::uint64_t>(call_index)) %
      static_cast<std::uint64_t>(shards));
}

/// The service's static geometry: which clients belong to which shard, how
/// wide each shard's family instance is, and where its registers live inside
/// the one backing memory (per-shard base offsets; see OffsetCtx).
///
/// In static routing, shard s hosts exactly its hash bucket and its family
/// instance is sized to that bucket. With rehash_calls every call may land
/// anywhere, so every shard must be able to seat every client: width becomes
/// `clients` everywhere and a client's local pid is its global id — the
/// footprint cost of elasticity, paid explicitly rather than hidden.
struct ShardLayout {
  int shards = 0;
  int clients = 0;
  bool rehash_calls = false;
  std::vector<int> shard_of;              ///< client -> home shard (static)
  std::vector<int> local_pid;             ///< client -> pid within home shard
  std::vector<std::vector<int>> members;  ///< shard -> clients it may seat
  std::vector<int> width;                 ///< shard -> family instance size
  std::vector<int> base;                  ///< shard -> first register
  std::vector<int> regs;                  ///< shard -> register count
  int total_regs = 0;

  /// `regs_fn(width)` is the family's per-shard register count (engines
  /// provide it); empty shards get zero registers and are never touched.
  template <class RegsFn>
  [[nodiscard]] static ShardLayout make(int clients, int shards,
                                        bool rehash_calls, RegsFn regs_fn) {
    STAMPED_ASSERT(clients >= 1);
    STAMPED_ASSERT(shards >= 1);
    ShardLayout lo;
    lo.shards = shards;
    lo.clients = clients;
    lo.rehash_calls = rehash_calls;
    lo.shard_of.resize(static_cast<std::size_t>(clients));
    lo.local_pid.resize(static_cast<std::size_t>(clients));
    lo.members.resize(static_cast<std::size_t>(shards));
    for (int c = 0; c < clients; ++c) {
      const int s = shard_of_client(c, shards);
      lo.shard_of[static_cast<std::size_t>(c)] = s;
      if (rehash_calls) {
        lo.local_pid[static_cast<std::size_t>(c)] = c;
      } else {
        lo.local_pid[static_cast<std::size_t>(c)] =
            static_cast<int>(lo.members[static_cast<std::size_t>(s)].size());
        lo.members[static_cast<std::size_t>(s)].push_back(c);
      }
    }
    if (rehash_calls) {
      for (int s = 0; s < shards; ++s) {
        auto& m = lo.members[static_cast<std::size_t>(s)];
        m.resize(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) m[static_cast<std::size_t>(c)] = c;
      }
    }
    lo.width.resize(static_cast<std::size_t>(shards));
    lo.base.resize(static_cast<std::size_t>(shards));
    lo.regs.resize(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      const int w =
          static_cast<int>(lo.members[static_cast<std::size_t>(s)].size());
      lo.width[static_cast<std::size_t>(s)] = w;
      lo.regs[static_cast<std::size_t>(s)] = w > 0 ? regs_fn(w) : 0;
      lo.base[static_cast<std::size_t>(s)] = lo.total_regs;
      lo.total_regs += lo.regs[static_cast<std::size_t>(s)];
    }
    STAMPED_ASSERT_MSG(lo.total_regs >= 1,
                       "sharded layout allocated no registers");
    return lo;
  }

  /// The shard client c's call k lands on under the active routing mode.
  [[nodiscard]] int route(int client, int call_index) const {
    return rehash_calls ? shard_of_call(client, call_index, shards)
                        : shard_of[static_cast<std::size_t>(client)];
  }
};

}  // namespace stamped::shard
