// The paper's space-bound formulas, as executable functions.
//
// These are the quantities that appear in the theorems of Helmi, Higham,
// Pacheco & Woelfel (PODC 2011) and in the cited Ellen–Fatourou–Ruppert
// bounds. Benchmarks print these next to measured register usage so that the
// paper's tables can be regenerated (docs/paper-map.md lists the benches).
#pragma once

#include <cstdint>

namespace stamped::util::bounds {

/// Theorem 1.1: long-lived timestamps need at least n/6 - 1 registers.
double longlived_lower(std::int64_t n);

/// Ellen–Fatourou–Ruppert upper bound for long-lived timestamps: n - 1.
std::int64_t longlived_upper_efr(std::int64_t n);

/// Registers used by our long-lived comparator (max-scan): n.
std::int64_t longlived_upper_maxscan(std::int64_t n);

/// Theorem 1.2: one-shot timestamps need at least sqrt(2n) - log2(n) - O(1)
/// registers. We report the bound with the additive constant dropped; the
/// value may be negative for small n, in which case the bound is vacuous.
double oneshot_lower(std::int64_t n);

/// Theorem 1.3 / Section 6: Algorithm 4 uses ceil(2*sqrt(M)) registers for M
/// getTS calls (one-shot: M = n).
std::int64_t oneshot_upper_sqrt(std::int64_t m_calls);

/// Section 5: the simple one-shot algorithm uses ceil(n/2) registers.
std::int64_t oneshot_upper_simple(std::int64_t n);

/// Section 4 construction parameter m = floor(sqrt(2n)).
std::int64_t oneshot_grid_m(std::int64_t n);

/// Lemma 6.5: the number of phases Phi of Algorithm 4 satisfies Phi < 2*sqrt(M).
double phase_bound(std::int64_t m_calls);

/// Claim 6.13: at most 2M invalidation writes in any execution with M calls.
std::int64_t invalidation_bound(std::int64_t m_calls);

}  // namespace stamped::util::bounds
