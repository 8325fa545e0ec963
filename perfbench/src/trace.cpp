#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "util/assert.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {
  spans_.reserve(kReservedSpans);
  open_.reserve(8);  // spans nest three deep at most
}

int Tracer::open(const char* name, std::uint64_t round,
                 Clock::time_point begin) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.round = round;
  s.begin = begin;
  s.end = begin;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id, Clock::time_point end) {
  STAMPED_ASSERT_MSG(!open_.empty() && open_.back() == id,
                     "spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::clear() {
  STAMPED_ASSERT_MSG(open_.empty(), "cannot clear with a span open");
  spans_.clear();
}

void Tracer::arg(int id, const char* key, double value) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  STAMPED_ASSERT_MSG(s.arg_count < kMaxArgs, "too many counts on one span");
  s.args[s.arg_count++] = {key, value};
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.begin, s.end);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.spans;
    const double dur = seconds_between(s.begin, s.end);
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out.precision(12);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const auto dot = name.find('.');
    const std::string layer =
        dot == std::string::npos ? "bench" : name.substr(0, dot);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << us(s.begin) << ",\"dur\":" << us(s.end) - us(s.begin)
        << ",\"args\":{\"round\":" << s.round << ",\"span\":" << i
        << ",\"parent\":" << s.parent;
    for (std::size_t a = 0; a < s.arg_count; ++a) {
      out << ",\"" << s.args[a].key << "\":" << s.args[a].value;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
