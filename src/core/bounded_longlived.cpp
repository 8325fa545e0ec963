#include "core/bounded_longlived.hpp"

#include <sstream>

#include "util/math.hpp"

namespace stamped::core {

std::string BoundedLabel::repr() const {
  std::ostringstream os;
  os << val << '#' << gen;
  return os.str();
}

std::string BoundedTimestamp::repr() const {
  std::ostringstream os;
  os << '<';
  for (std::size_t i = 0; i < comps.size(); ++i) {
    if (i > 0) os << ' ';
    os << comps[i];
  }
  os << ">%" << modulus;
  return os.str();
}

std::int32_t bounded_modulus(int calls_per_process,
                             std::int32_t universe_bound) {
  const std::int32_t k = universe_bound > 0
                             ? universe_bound
                             : bounded_modulus_for(calls_per_process);
  STAMPED_ASSERT_MSG(k >= 3, "bounded modulus must be >= 3, got " << k);
  return k;
}

int bounded_bits_per_register(std::int32_t modulus) {
  STAMPED_ASSERT(modulus >= 2);
  return util::ceil_log2(modulus) + util::ceil_log2(modulus + 1);
}

bool bounded_before(const BoundedTimestamp& a, const BoundedTimestamp& b) {
  if (a.modulus != b.modulus || a.comps.size() != b.comps.size()) return false;
  const std::int32_t k = a.modulus;
  if (k < 3 || a.comps.empty()) return false;
  const std::int32_t w = bounded_window(k);
  bool strict = false;
  for (std::size_t i = 0; i < a.comps.size(); ++i) {
    const std::int32_t diff =
        (((b.comps[i] - a.comps[i]) % k) + k) % k;  // (b_i - a_i) mod K
    if (diff > w) return false;
    if (diff >= 1) strict = true;
  }
  return strict;
}

bool bounded_pair_within_window(
    const std::vector<runtime::CallRecord<BoundedTimestamp>>& all,
    const runtime::CallRecord<BoundedTimestamp>& a,
    const runtime::CallRecord<BoundedTimestamp>& b, std::int32_t modulus) {
  const std::int32_t w = bounded_window(modulus);
  // Count, per process, the calls overlapping [a.invoked_at, b.responded_at].
  // Every register tick between the two scans belongs to such a call, so
  // these counts upper-bound the interim ticks d_i of the window argument.
  std::vector<std::int64_t> overlapping;
  for (const auto& r : all) {
    if (r.responded_at <= a.invoked_at || r.invoked_at >= b.responded_at) {
      continue;
    }
    if (r.pid < 0) continue;
    if (static_cast<std::size_t>(r.pid) >= overlapping.size()) {
      overlapping.resize(static_cast<std::size_t>(r.pid) + 1, 0);
    }
    if (++overlapping[static_cast<std::size_t>(r.pid)] > w) return false;
  }
  return true;
}

}  // namespace stamped::core
