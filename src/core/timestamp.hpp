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

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
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

/// An immutable sequence of getTS-ids: the seq of a TsRecord. Algorithm 4
/// stores sequences of length 1 (every invalidation write) or j (the phase
/// starter's record in register j, Section 6.1), so most register reads
/// return a one-id sequence. That id is stored inline; only a sequence of
/// length >= 2 owns a heap array, so copying or moving a one-id sequence
/// allocates nothing and copying a longer one allocates exactly once.
class IdSeq {
 public:
  IdSeq() = default;
  explicit IdSeq(TsId id) : size_(1) { ids_.one = id; }
  explicit IdSeq(std::span<const TsId> ids) : size_(ids.size()) {
    if (size_ == 1) {
      ids_.one = ids[0];
    } else if (size_ > 1) {
      ids_.many = new TsId[size_];
      std::copy(ids.begin(), ids.end(), ids_.many);
    }
  }

  IdSeq(const IdSeq& other)
      : IdSeq(std::span<const TsId>(other.begin(), other.size())) {}
  /// Leaves `other` empty.
  IdSeq(IdSeq&& other) noexcept
      : size_(std::exchange(other.size_, 0)), ids_(other.ids_) {}
  /// Copy and move assignment in one: `other` is the copy (or the moved
  /// sequence), and the old contents leave with it.
  IdSeq& operator=(IdSeq other) noexcept {
    std::swap(size_, other.size_);
    std::swap(ids_, other.ids_);
    return *this;
  }
  ~IdSeq() {
    if (size_ > 1) delete[] ids_.many;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const TsId* begin() const {
    return size_ > 1 ? ids_.many : &ids_.one;
  }
  [[nodiscard]] const TsId* end() const { return begin() + size_; }
  [[nodiscard]] const TsId& operator[](std::size_t i) const {
    return begin()[i];
  }
  [[nodiscard]] const TsId& back() const { return begin()[size_ - 1]; }

  friend bool operator==(const IdSeq& a, const IdSeq& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  union Ids {
    Ids() : many(nullptr) {}

    TsId one;    ///< the id when size_ == 1
    TsId* many;  ///< owned array when size_ >= 2
  };

  std::size_t size_ = 0;
  Ids ids_;
};

/// Register content of Algorithm 4: either the initial value ⊥ (bottom) or a
/// pair <seq, rnd> where seq is a sequence of getTS-ids and rnd a positive
/// integer. The algorithm maintains (paper, Section 6.1): for some k >= 0 the
/// first k registers are non-⊥ and all others ⊥, and the seq stored in
/// (1-indexed) register j has length either 1 or j. A one-id record (the
/// invalidation write, make_one) holds its id inline; see IdSeq.
struct TsRecord {
  bool is_bottom = true;
  IdSeq seq;
  std::int64_t rnd = 0;

  friend bool operator==(const TsRecord&, const TsRecord&) = default;

  [[nodiscard]] static TsRecord bottom() { return {}; }

  [[nodiscard]] static TsRecord make(const std::vector<TsId>& ids,
                                     std::int64_t round) {
    STAMPED_ASSERT(!ids.empty());
    STAMPED_ASSERT(round >= 1);
    return {false, IdSeq(ids), round};
  }

  /// <[id], round>: the record an invalidation write stores.
  [[nodiscard]] static TsRecord make_one(TsId id, std::int64_t round) {
    STAMPED_ASSERT(round >= 1);
    return {false, IdSeq(id), round};
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
