// Span recorder for the traced run.
//
// Every call the benchmark makes into a library layer is wrapped in a Scope.
// With tracing off the Scope is just a steady_clock stopwatch; with a Tracer
// attached it also records a span: name, start, end, parent span and the
// round id it belongs to, plus counts attached at the same boundary. Spans
// stay in memory and are written once, at exit, as Chrome trace-event JSON.
// A span holds no heap memory (its name and argument keys are string
// literals, its arguments a fixed array) and the span store is reserved up
// front, so recording allocates nothing between rounds.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  /// Counts one span can carry.
  static constexpr std::size_t kMaxArgs = 8;
  /// Spans reserved up front; a traced run records a few thousand.
  static constexpr std::size_t kReservedSpans = std::size_t{1} << 15;

  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  struct Span {
    const char* name = nullptr;  ///< a string literal
    int parent = -1;             ///< index into spans(), -1 for a root span
    std::uint64_t round = 0;
    Clock::time_point begin;
    Clock::time_point end;
    std::array<Arg, kMaxArgs> args{};
    std::size_t arg_count = 0;
  };

  /// Self time of every span with one name: its duration minus the part of
  /// that interval its child spans cover.
  struct SelfTime {
    std::string name;
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer();

  /// Opens a span nested in the innermost open one; `name` must outlive the
  /// Tracer (a string literal).
  int open(const char* name, std::uint64_t round, Clock::time_point begin);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id, Clock::time_point end);
  /// Attaches a count to span `id`; `key` must be a string literal.
  void arg(int id, const char* key, double value);

  /// Drops every span and keeps the storage; no span may be open.
  void clear();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// track); returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Stopwatch around one call into a layer; records a span when a Tracer is
/// attached. Closes itself on scope exit (an exception mid-round included).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t round)
      : tracer_(tracer), begin_(Clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name, round, begin_);
  }
  ~Scope() {
    if (!stopped_) stop();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span; returns its duration in seconds.
  double stop() {
    const Clock::time_point end = Clock::now();
    if (tracer_ != nullptr && !stopped_) tracer_->close(id_, end);
    stopped_ = true;
    return seconds_between(begin_, end);
  }

  void arg(const char* key, double value) {
    if (tracer_ != nullptr) tracer_->arg(id_, key, value);
  }

 private:
  Tracer* tracer_;
  Clock::time_point begin_;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench
