// Observed register-access maps: the raw material of the footprint analysis.
//
// An AccessMap accumulates, per register, which pids read it, which pids
// wrote it and with which op kinds, over any number of dry-run executions.
// analysis::observe_footprint fills it from the step-info log of a family's
// systems driven through a schedule battery; analysis::lint_footprints
// diffs it against the family's declared FootprintSpec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/isystem.hpp"
#include "util/assert.hpp"

namespace stamped::analysis {

/// Everything observed about one register across the merged dry-runs. Masks
/// are pid bitmasks (bit p set iff process p performed such an access), the
/// same width as the explorer's sleep sets, so n <= 64.
struct RegisterAccess {
  std::uint64_t writer_mask = 0;  ///< pids that modified the register
  std::uint64_t reader_mask = 0;  ///< pids that read it (incl. versioned)
  std::uint32_t op_kinds = 0;     ///< bitmask by runtime::OpKind (1 << kind)
  std::uint64_t writes = 0;       ///< total modifying accesses
  std::uint64_t reads = 0;        ///< total reading accesses

  [[nodiscard]] bool written() const { return writes != 0; }
};

/// Per-register observed access map of one or more executions.
class AccessMap {
 public:
  AccessMap() = default;
  AccessMap(int n, int m) : n_(n), regs_(static_cast<std::size_t>(m)) {
    STAMPED_ASSERT_MSG(n >= 1 && n <= 64,
                       "access maps are pid bitmasks: 1 <= n <= 64, got "
                           << n);
    STAMPED_ASSERT_MSG(m >= 1, "need at least one register, got " << m);
  }

  [[nodiscard]] int num_processes() const { return n_; }
  [[nodiscard]] int num_registers() const {
    return static_cast<int>(regs_.size());
  }

  [[nodiscard]] const RegisterAccess& reg(int r) const {
    STAMPED_ASSERT(r >= 0 && r < num_registers());
    return regs_[static_cast<std::size_t>(r)];
  }

  void record(int pid, runtime::OpKind kind, int r) {
    if (kind == runtime::OpKind::kNone) return;
    STAMPED_ASSERT(pid >= 0 && pid < n_);
    STAMPED_ASSERT(r >= 0 && r < num_registers());
    RegisterAccess& a = regs_[static_cast<std::size_t>(r)];
    a.op_kinds |= 1u << static_cast<unsigned>(kind);
    if (runtime::op_kind_writes(kind)) {
      a.writer_mask |= std::uint64_t{1} << pid;
      ++a.writes;
    }
    // Swap and fetch&add observe the old value, so they count as reads too;
    // a plain write does not.
    if (!runtime::op_kind_writes(kind) || kind == runtime::OpKind::kSwap ||
        kind == runtime::OpKind::kFetchAdd) {
      a.reader_mask |= std::uint64_t{1} << pid;
      ++a.reads;
    }
  }

  /// Folds another map over the same geometry into this one.
  void merge(const AccessMap& other) {
    STAMPED_ASSERT(other.n_ == n_ &&
                   other.num_registers() == num_registers());
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      regs_[r].writer_mask |= other.regs_[r].writer_mask;
      regs_[r].reader_mask |= other.regs_[r].reader_mask;
      regs_[r].op_kinds |= other.regs_[r].op_kinds;
      regs_[r].writes += other.regs_[r].writes;
      regs_[r].reads += other.regs_[r].reads;
    }
  }

 private:
  int n_ = 0;
  std::vector<RegisterAccess> regs_;
};

/// "{0,3,5}" for a pid bitmask — the lint's message vocabulary.
inline std::string pid_mask_repr(std::uint64_t mask) {
  std::string out = "{";
  bool first = true;
  for (int p = 0; p < 64; ++p) {
    if ((mask >> p & 1u) == 0) continue;
    if (!first) out += ",";
    out += std::to_string(p);
    first = false;
  }
  return out + "}";
}

}  // namespace stamped::analysis
