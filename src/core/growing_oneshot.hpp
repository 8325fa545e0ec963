// Section 7 extension: Algorithm 4 without an a-priori bound on the number of
// getTS invocations.
//
// The paper remarks that the one-shot algorithm "generalizes even to the
// situation where the number of getTS() method invocations is not bounded,
// provided that the system could acquire additional registers as needed",
// with progress degrading from wait-free to non-blocking.
//
// In the simulator, register acquisition is modeled by a pre-allocated pool
// that is provably large enough for the actual number of invocations issued
// (Phi <= M phases can ever start, since each getTS performs at most one
// scan, so M + 2 registers always suffice); the algorithm itself never reads
// past the first ⊥ register, so the pool size is unobservable to it — exactly
// as if registers were materialized on demand.
#pragma once

namespace stamped::core {

/// A safe register pool size for `total_calls` invocations: each call starts
/// at most one phase, so at most total_calls + 1 registers can ever become
/// non-⊥; one extra ⊥ sentinel terminates the initial while-loop.
[[nodiscard]] constexpr int growing_pool_registers(int total_calls) {
  return total_calls + 2;
}

}  // namespace stamped::core
