// The benchmark's four workloads, each driven through the library's public
// API. A round is one fresh single-use object, from build through run to
// teardown, checked before the next round starts (closed loop).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/family.hpp"
#include "api/harness.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace stamped;  // NOLINT(google-build-using-namespace)

/// Worker threads of every native round: one per client.
inline constexpr int kThreads = 4;

/// Median and linear-interpolated quantile of a sample (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// What one round did: wall time, the time it took to build the round's
/// object, getTS calls it completed, and why it failed ("" when every check
/// passed).
struct RoundResult {
  double seconds = 0.0;
  double build_seconds = 0.0;
  std::uint64_t calls = 0;
  std::string failure;
};

/// Per-layer samples of the traced run, keyed by metric name. A name's
/// sample vector is reserved when the name first appears and lookups build
/// no key string, so once every name has been seen (after the first traced
/// round of each kind) adding a sample allocates nothing.
class LayerSamples {
 public:
  static constexpr std::size_t kReservedSamples = std::size_t{1} << 12;

  void add(std::string_view name, double value) {
    auto it = samples_.find(name);
    if (it == samples_.end()) {
      it = samples_.emplace(std::string(name), std::vector<double>{}).first;
      it->second.reserve(kReservedSamples);
    }
    it->second.push_back(value);
  }
  /// Drops every sample and keeps the names and their storage.
  void clear() {
    for (auto& entry : samples_) entry.second.clear();
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return samples_.find(name) != samples_.end();
  }
  [[nodiscard]] std::size_t count(std::string_view name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }
  /// Median of the samples; 0 when the workload never reached that layer.
  [[nodiscard]] double median(std::string_view name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : perfbench::median(it->second);
  }
  [[nodiscard]] double max(std::string_view name) const;

 private:
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

/// Exact exploration counts a model-check round must reproduce.
struct ExplorePins {
  std::uint64_t executions = 0;
  std::uint64_t nodes = 0;
  std::uint64_t persistent_deferred = 0;
};

/// Round verdicts ("" = pass). Shared with the self-test, which feeds them
/// sabotaged reports.
[[nodiscard]] std::string judge_native_run(const api::NativeRunStats& st,
                                           std::int64_t expected_calls);
[[nodiscard]] std::string judge_native_check(const api::ScenarioReport& rep,
                                             std::int64_t expected_calls);
[[nodiscard]] std::string judge_explore(const api::ScenarioReport& rep,
                                        const ExplorePins& pins);

/// The model-check workload's scenario, source and pinned counts.
[[nodiscard]] api::ScenarioSpec model_check_spec(std::uint64_t seed);
[[nodiscard]] api::ScheduleSource model_check_source();
[[nodiscard]] ExplorePins model_check_pins();

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  /// One line: family, shape, threads, calls per round.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// The family a round runs (the family-specific probes use it).
  [[nodiscard]] virtual const api::TimestampFamily& family() const = 0;
  /// Registers the round object allocates: the paper's space measure.
  [[nodiscard]] virtual std::int64_t registers() const = 0;
  /// Client threads of a round (0 on the simulator).
  [[nodiscard]] virtual int threads() const = 0;

  /// One throughput round. `layers` is set in the traced run only.
  virtual RoundResult round(Tracer* tracer, std::uint64_t id,
                            LayerSamples* layers) = 0;
  /// Native workloads run separate verification rounds
  /// (Harness::run_scenario with default Checkers); model-check rounds are
  /// verification rounds already.
  [[nodiscard]] virtual bool has_check_round() const = 0;
  virtual RoundResult check_round(Tracer* tracer, std::uint64_t id,
                                  LayerSamples* layers) = 0;
  /// Traced run only, after its round loop: one round of the same work
  /// without the layer under study (sharded: no shard layer; model-check:
  /// no checkers), so the layer's cost can be read off by difference.
  virtual void reference_round(LayerSamples& layers) { (void)layers; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null when `name` is not a workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

/// The benchmark's own test (selftest.cpp): clean rounds pass, a pinned
/// count mismatch or a checker violation fails them. Returns the exit code.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
