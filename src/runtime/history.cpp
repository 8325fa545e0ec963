#include "runtime/history.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace stamped::runtime {

std::string schedule_to_string(const std::vector<int>& schedule,
                               std::size_t max_entries) {
  std::ostringstream os;
  const std::size_t shown =
      schedule.size() < max_entries ? schedule.size() : max_entries;
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) os << ' ';
    os << schedule[i];
  }
  if (shown < schedule.size()) {
    os << " …(+" << (schedule.size() - shown) << ")";
  }
  return os.str();
}

std::vector<int> parse_schedule(const std::string& text) {
  std::vector<int> out;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    try {
      std::size_t pos = 0;
      const int v = std::stoi(token, &pos);
      STAMPED_ASSERT_MSG(pos == token.size(),
                         "bad schedule token '" << token << "'");
      STAMPED_ASSERT_MSG(v >= 0, "negative pid in schedule");
      out.push_back(v);
    } catch (const std::invalid_argument&) {
      STAMPED_ASSERT_MSG(false, "bad schedule token '" << token << "'");
    } catch (const std::out_of_range&) {
      STAMPED_ASSERT_MSG(false, "schedule token out of range '" << token
                                                                << "'");
    }
  }
  return out;
}

}  // namespace stamped::runtime
