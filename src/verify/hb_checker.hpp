// The timestamp correctness property, checked on recorded histories.
//
// Paper, Section 2: if two getTS() instances g1 and g2 return t1 and t2, and
// g1 happens before g2, then compare(t1, t2) returns true and compare(t2, t1)
// returns false. This is the *only* requirement of the weak timestamp object;
// concurrent calls may return arbitrary (even equal) timestamps.
//
// The checker takes the call records the programs recorded and verifies the
// property over all ordered pairs, plus basic sanity of compare itself
// (irreflexivity and asymmetry on the returned timestamps).
//
// Bounded-universe objects (core/bounded_longlived.hpp) satisfy the property
// only for pairs within their recycling window; the *_filtered variants take
// a pair predicate selecting the ordered pairs that carry an obligation.
// Irreflexivity and asymmetry are universe-wide and stay unconditional.
//
// Two forms of each checker. The quadratic ones visit every pair and are the
// reference: they take any comparator and any pair filter. The *_sweep forms
// run in O(N log N) and return the identical report, but only for a
// comparator that is a strict total order on the recorded timestamps (equal
// timestamps are the only incomparable ones) and with no pair filter. A
// comparator declares that with `static constexpr bool kTotalOrder = true`
// (DeclaresTotalOrder); core::Compare does, the bounded family's windowed
// cyclic compare and the sharded service's composed compare do not.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/history.hpp"
#include "runtime/value.hpp"

namespace stamped::verify {

/// Result of a history check: empty vector means the property holds.
struct HbReport {
  std::vector<std::string> violations;
  std::size_t ordered_pairs_checked = 0;
  std::size_t concurrent_pairs = 0;
  /// Ordered pairs the pair filter released from their obligation (always 0
  /// for the unfiltered checkers).
  std::size_t filtered_pairs = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  friend bool operator==(const HbReport&, const HbReport&) = default;

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "ordered_pairs=" << ordered_pairs_checked
       << " concurrent_pairs=" << concurrent_pairs
       << " filtered_pairs=" << filtered_pairs
       << " violations=" << violations.size();
    for (const auto& v : violations) os << "\n  " << v;
    return os.str();
  }
};

/// A comparator that declares itself a strict total order on timestamps:
/// irreflexive, asymmetric and transitive, with equal timestamps the only
/// incomparable ones. The *_sweep checkers are exact only for such a
/// comparator; a comparator without the member declares nothing.
template <class Cmp>
concept DeclaresTotalOrder = requires { requires Cmp::kTotalOrder; };

namespace detail {

/// "getTS(p0.2)@[3,9)=<ts>" — call coordinates plus the returned timestamp
/// (timestamps render via runtime::value_repr: to_string for arithmetic
/// universes, .repr() otherwise).
template <class Ts>
std::string describe_call(const runtime::CallRecord<Ts>& r) {
  std::ostringstream os;
  os << "getTS(p" << r.pid << "." << r.call_index << ")@[" << r.invoked_at
     << ',' << r.responded_at << ")=" << runtime::value_repr(r.ts);
  return os.str();
}

}  // namespace detail

/// Checks the timestamp property on `records` with comparator `cmp`
/// (cmp(a, b) is the object's compare(a, b)); an ordered pair (a, b) carries
/// an obligation only when `pair_filter(a, b)` is true. Quadratic in the
/// number of calls, with three comparator calls per pair: the reference for
/// check_timestamp_property_sweep, and the only form for a comparator that
/// is not a total order or a history with a pair filter.
template <class Ts, class Cmp, class PairFilter>
HbReport check_timestamp_property_filtered(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    PairFilter pair_filter) {
  HbReport report;
  for (std::size_t i = 0; i < records.size(); ++i) {
    // compare must be irreflexive on every returned timestamp: t < t never.
    if (cmp(records[i].ts, records[i].ts)) {
      report.violations.push_back("compare(t,t) true for " +
                                  detail::describe_call(records[i]));
    }
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (i == k) continue;
      const auto& a = records[i];
      const auto& b = records[k];
      if (a.happens_before(b)) {
        if (!pair_filter(a, b)) {
          ++report.filtered_pairs;
          continue;
        }
        ++report.ordered_pairs_checked;
        if (!cmp(a.ts, b.ts)) {
          report.violations.push_back("ordered pair but !compare(t1,t2): " +
                                      detail::describe_call(a) + " -> " +
                                      detail::describe_call(b));
        }
        if (cmp(b.ts, a.ts)) {
          report.violations.push_back("ordered pair but compare(t2,t1): " +
                                      detail::describe_call(a) + " -> " +
                                      detail::describe_call(b));
        }
      } else if (i < k && !b.happens_before(a)) {
        ++report.concurrent_pairs;
        // No ordering requirement, but compare must not claim both
        // directions simultaneously (it is a strict order on values).
        if (cmp(a.ts, b.ts) && cmp(b.ts, a.ts)) {
          report.violations.push_back("compare true both ways: " +
                                      detail::describe_call(a) + " || " +
                                      detail::describe_call(b));
        }
      }
    }
  }
  return report;
}

/// The unconditional property: every ordered pair carries an obligation.
template <class Ts, class Cmp>
HbReport check_timestamp_property(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  return check_timestamp_property_filtered(
      records, cmp,
      [](const runtime::CallRecord<Ts>&, const runtime::CallRecord<Ts>&) {
        return true;
      });
}

/// Additionally checks that consecutive calls by the same process received
/// increasing timestamps (they are ordered by happens-before, so this is a
/// corollary of the main property; separated for sharper failure messages).
/// Collects ALL violations; each message carries both offending timestamps.
/// `pair_filter` releases pairs from their obligation as above.
///
/// Same-pid pairs are ordered by happens-before, not call_index: a restarted
/// process (crash/restart adversary) begins a fresh program whose call_index
/// restarts at 0, yet its post-restart calls still happen after its
/// pre-crash ones — the event stamps, unlike the per-incarnation indices,
/// survive the crash. For crash-free histories the two orders coincide
/// (call k responds before call k+1 invokes).
template <class Ts, class Cmp, class PairFilter>
HbReport check_per_process_monotonicity_filtered(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    PairFilter pair_filter) {
  HbReport report;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t k = 0; k < records.size(); ++k) {
      const auto& a = records[i];
      const auto& b = records[k];
      if (a.pid != b.pid || i == k || !a.happens_before(b)) continue;
      if (!pair_filter(a, b)) {
        ++report.filtered_pairs;
        continue;
      }
      ++report.ordered_pairs_checked;
      if (!cmp(a.ts, b.ts)) {
        std::ostringstream os;
        os << "process p" << a.pid << " calls " << a.call_index << " and "
           << b.call_index << " not increasing: !compare("
           << runtime::value_repr(a.ts) << ", " << runtime::value_repr(b.ts)
           << ") — " << detail::describe_call(a) << " -> "
           << detail::describe_call(b);
        report.violations.push_back(os.str());
      }
    }
  }
  return report;
}

/// Unconditional per-process monotonicity.
template <class Ts, class Cmp>
HbReport check_per_process_monotonicity(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  return check_per_process_monotonicity_filtered(
      records, cmp,
      [](const runtime::CallRecord<Ts>&, const runtime::CallRecord<Ts>&) {
        return true;
      });
}

/// O(N log N) form of check_timestamp_property for a comparator that is a
/// strict total order on the recorded timestamps (DeclaresTotalOrder).
///
/// Sorts the calls by timestamp and walks the groups of equal timestamps from
/// the largest down, keeping the smallest response among the calls seen so
/// far, the current group included. A call invoked after that response has an
/// hb-predecessor whose timestamp is equal or larger: that is exactly a
/// violating ordered pair. With no violation, `ordered_pairs_checked` is
/// counted by binary search over the sorted responses, and every other pair
/// is concurrent: no pair is ordered both ways, because every call has
/// invoked_at < responded_at (the history recorder asserts it).
///
/// Guards, each of which returns check_timestamp_property's report instead:
/// a call with compare(t,t); an adjacent pair the sort left out of order (the
/// comparator is then no order; the merge sort of std::stable_sort stays in
/// range even so); and any violation the sweep finds, so failure messages
/// and their order are the quadratic checker's. The guards do not prove the
/// declaration: a comparator that is not transitive can still pass them.
template <class Ts, class Cmp>
HbReport check_timestamp_property_sweep(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  const auto quadratic = [&] { return check_timestamp_property(records, cmp); };
  for (const auto& r : records) {
    if (cmp(r.ts, r.ts)) return quadratic();
  }
  const std::size_t n = records.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cmp(records[a].ts, records[b].ts);
                   });
  std::uint64_t min_response = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t hi = n; hi > 0;) {
    // The group of timestamps equal to records[order[hi - 1]] is [lo, hi).
    std::size_t lo = hi - 1;
    min_response = std::min(min_response, records[order[lo]].responded_at);
    while (lo > 0) {
      const auto& below = records[order[lo - 1]];
      const auto& here = records[order[lo]];
      if (cmp(here.ts, below.ts)) return quadratic();
      if (cmp(below.ts, here.ts)) break;
      min_response = std::min(min_response, below.responded_at);
      --lo;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      if (records[order[k]].invoked_at > min_response) return quadratic();
    }
    hi = lo;
  }

  std::vector<std::uint64_t> responses(n);
  for (std::size_t i = 0; i < n; ++i) responses[i] = records[i].responded_at;
  std::sort(responses.begin(), responses.end());
  HbReport report;
  for (const auto& b : records) {
    report.ordered_pairs_checked += static_cast<std::size_t>(
        std::lower_bound(responses.begin(), responses.end(), b.invoked_at) -
        responses.begin());
  }
  report.concurrent_pairs = n * (n - 1) / 2 - report.ordered_pairs_checked;
  return report;
}

/// O(N log N) form of check_per_process_monotonicity for a comparator that is
/// a strict total order (DeclaresTotalOrder). Orders each process's calls by
/// invoked_at; every adjacent pair must be hb-ordered and compare forward
/// (and not backward). Then each process's calls form one hb chain, which
/// covers every same-pid pair the quadratic checker visits, restarts
/// included (a crashed call is never recorded, and the event stamps survive
/// the restart), and transitivity carries compare along the chain. Any
/// adjacent pair that fails returns check_per_process_monotonicity's report.
/// Like the count above, this relies on invoked_at < responded_at for every
/// call, which the history recorder asserts.
template <class Ts, class Cmp>
HbReport check_per_process_monotonicity_sweep(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  const std::size_t n = records.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = records[a];
    const auto& y = records[b];
    return x.pid != y.pid ? x.pid < y.pid : x.invoked_at < y.invoked_at;
  });
  HbReport report;
  std::size_t earlier = 0;  // calls of the current process before `next`
  for (std::size_t k = 1; k < n; ++k) {
    const auto& prev = records[order[k - 1]];
    const auto& next = records[order[k]];
    if (prev.pid != next.pid) {
      earlier = 0;
      continue;
    }
    if (!prev.happens_before(next) || !cmp(prev.ts, next.ts) ||
        cmp(next.ts, prev.ts)) {
      return check_per_process_monotonicity(records, cmp);
    }
    report.ordered_pairs_checked += ++earlier;
  }
  return report;
}

}  // namespace stamped::verify
