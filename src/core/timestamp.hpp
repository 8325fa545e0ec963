// Timestamp types shared by all algorithms in this library.
//
// An unbounded timestamp object (paper, Section 2) supports
//   getTS()          -> timestamp from a universe T
//   compare(t1, t2)  -> bool
// with the single correctness requirement: if getTS g1 returning t1 happens
// before getTS g2 returning t2, then compare(t1,t2) = true and
// compare(t2,t1) = false. compare never accesses shared memory.
//
// Two timestamp universes appear in the paper:
//   - integers (simple algorithm of Section 5, max-scan comparator):
//     compare is `<`
//   - ordered pairs (rnd, turn) in N x (N u {0}) (Algorithm 3/4, Section 6):
//     compare is lexicographic `<`
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace stamped::core {

/// A getTS-id "p.k": the k-th invocation of getTS by process p (paper,
/// Section 6.1). For one-shot objects k is always 0 and the id reduces to the
/// process identifier.
struct TsId {
  std::int32_t pid = -1;
  std::int32_t call = 0;

  friend constexpr auto operator<=>(const TsId&, const TsId&) = default;

  [[nodiscard]] std::string repr() const;
};

/// Timestamp of Algorithms 3/4: the ordered pair (rnd, turn).
struct PairTimestamp {
  std::int64_t rnd = 0;
  std::int64_t turn = 0;

  friend constexpr bool operator==(const PairTimestamp&,
                                   const PairTimestamp&) = default;

  [[nodiscard]] std::string repr() const;
};

/// Algorithm 3: compare((rnd1,turn1),(rnd2,turn2)) — pure lexicographic
/// comparison, no shared-memory access.
[[nodiscard]] constexpr bool compare(const PairTimestamp& a,
                                     const PairTimestamp& b) {
  return a.rnd < b.rnd || (a.rnd == b.rnd && a.turn < b.turn);
}

/// Integer timestamps (Section 5 simple algorithm, max-scan): compare is <.
[[nodiscard]] constexpr bool compare(std::int64_t a, std::int64_t b) {
  return a < b;
}

/// Functor form of compare for generic checkers. Both overloads above are
/// strict total orders (`<` on integers, lexicographic `<` on pairs), which
/// lets the history checkers sort timestamps (verify::DeclaresTotalOrder).
struct Compare {
  static constexpr bool kTotalOrder = true;

  template <class Ts>
  [[nodiscard]] constexpr bool operator()(const Ts& a, const Ts& b) const {
    return compare(a, b);
  }
};

/// Register content of Algorithm 4: either the initial value ⊥ (bottom) or a
/// pair <seq, rnd> where seq is a sequence of getTS-ids and rnd a positive
/// integer. The algorithm maintains (paper, Section 6.1): for some k >= 0 the
/// first k registers are non-⊥ and all others ⊥, and the seq stored in
/// (1-indexed) register j has length either 1 or j.
struct TsRecord {
  bool is_bottom = true;
  std::vector<TsId> seq;
  std::int64_t rnd = 0;

  friend bool operator==(const TsRecord&, const TsRecord&) = default;

  [[nodiscard]] static TsRecord bottom() { return {}; }

  [[nodiscard]] static TsRecord make(std::vector<TsId> ids,
                                     std::int64_t round) {
    STAMPED_ASSERT(!ids.empty());
    STAMPED_ASSERT(round >= 1);
    TsRecord rec;
    rec.is_bottom = false;
    rec.seq = std::move(ids);
    rec.rnd = round;
    return rec;
  }

  /// last(seq) — the last getTS-id of the stored sequence.
  [[nodiscard]] const TsId& last() const {
    STAMPED_ASSERT_MSG(!is_bottom && !seq.empty(),
                       "last() on bottom/empty record");
    return seq.back();
  }

  [[nodiscard]] std::string repr() const;
};

}  // namespace stamped::core
