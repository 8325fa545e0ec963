// OffsetCtx: one backing memory, many shard-local register spaces.
//
// Every shard's family instance believes it owns registers [0, regs_s); the
// service packs them all into one runtime::System / native::NativeSystem
// memory and hands each execution an OffsetCtx that rebases register indices
// by the shard's base offset. The family getts coroutines are templates over
// their ctx, so they run unchanged on the simulator and on real threads.
#pragma once

#include <cstdint>
#include <utility>

#include "util/assert.hpp"

namespace stamped::shard {

template <class Ctx>
class OffsetCtx {
 public:
  using Value = typename Ctx::Value;

  OffsetCtx(Ctx& inner, int base, int limit)
      : inner_(inner), base_(base), limit_(limit) {
    STAMPED_ASSERT(base >= 0 && limit >= 1);
  }

  [[nodiscard]] auto read(int reg) { return inner_.read(rebase(reg)); }
  [[nodiscard]] auto versioned_read(int reg) {
    return inner_.versioned_read(rebase(reg));
  }
  [[nodiscard]] auto write(int reg, Value value) {
    return inner_.write(rebase(reg), std::move(value));
  }
  [[nodiscard]] auto swap(int reg, Value value) {
    return inner_.swap(rebase(reg), std::move(value));
  }
  // Template so the member only instantiates for arithmetic V (DirectCtx
  // constrains fetch_add; only the fetchadd engine reaches this).
  template <class A>
  [[nodiscard]] auto fetch_add(int reg, A addend) {
    return inner_.fetch_add(rebase(reg), std::move(addend));
  }

  std::uint64_t stamp() { return inner_.stamp(); }
  [[nodiscard]] std::uint64_t steps_now() const { return inner_.steps_now(); }
  [[nodiscard]] std::uint64_t my_steps() const { return inner_.my_steps(); }
  void note_call_complete() { inner_.note_call_complete(); }
  [[nodiscard]] int pid() const { return inner_.pid(); }
  [[nodiscard]] int num_registers() const { return limit_; }

 private:
  [[nodiscard]] int rebase(int reg) const {
    STAMPED_ASSERT_MSG(reg >= 0 && reg < limit_,
                       "shard-local register " << reg
                           << " outside shard window of " << limit_);
    return base_ + reg;
  }

  Ctx& inner_;
  int base_;
  int limit_;
};

}  // namespace stamped::shard
