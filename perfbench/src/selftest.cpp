// The benchmark's own test: a round that breaks a pinned count or trips a
// checker must be judged failed, and clean rounds must pass. Run with
// `perfbench --selftest` (or ctest in the build directory).
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// A family instance whose history reports every timestamp order reversed:
/// a planted comparator bug the timestamp-property checker must catch.
class ReversedOrder final : public api::FamilyInstance {
 public:
  explicit ReversedOrder(std::unique_ptr<api::FamilyInstance> inner)
      : inner_(std::move(inner)) {
    if (!inner_->native()) sys_ = inner_->take_system();
  }

  [[nodiscard]] api::GenericCallLog calls() const override {
    api::GenericCallLog log = inner_->calls();
    log.before = [before = log.before](std::size_t a, std::size_t b) {
      return before(b, a);
    };
    return log;
  }
  [[nodiscard]] bool native() const override { return inner_->native(); }
  api::NativeRunStats run_native(int threads) override {
    return inner_->run_native(threads);
  }

 private:
  std::unique_ptr<api::FamilyInstance> inner_;
};

api::TimestampFamily reversed_order(const api::TimestampFamily& fam) {
  api::TimestampFamily out = fam;
  out.name = fam.name + "-reversed";
  out.make = [make = fam.make](const api::ScenarioSpec& spec)
      -> std::unique_ptr<api::FamilyInstance> {
    return std::make_unique<ReversedOrder>(make(spec));
  };
  out.make_native = [make = fam.make_native](const api::ScenarioSpec& spec)
      -> std::unique_ptr<api::FamilyInstance> {
    return std::make_unique<ReversedOrder>(make(spec));
  };
  out.make_sharded = nullptr;
  return out;
}

}  // namespace

int run_selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  const auto fails_with = [](const std::string& verdict,
                             const std::string& needle) {
    return verdict.find(needle) != std::string::npos;
  };

  // Model-check: the pinned counts hold, and each one is enforced.
  const api::TimestampFamily& alg4 = api::family("sqrt-oneshot");
  const api::ScenarioSpec spec = model_check_spec(1);
  const api::ScheduleSource source = model_check_source();
  const ExplorePins pins = model_check_pins();
  const api::ScenarioReport explored =
      api::Harness{}.run_scenario(alg4, spec, source, api::Checkers{});
  expect(judge_explore(explored, pins).empty(),
         "model-check round reproduces its pinned counts");
  ExplorePins off = pins;
  ++off.executions;
  expect(fails_with(judge_explore(explored, off), "pinned"),
         "an execution-count mismatch fails the round");
  off = pins;
  ++off.nodes;
  expect(fails_with(judge_explore(explored, off), "pinned"),
         "a node-count mismatch fails the round");
  off = pins;
  ++off.persistent_deferred;
  expect(fails_with(judge_explore(explored, off), "pinned"),
         "a deferred-count mismatch fails the round");

  const api::ScenarioReport reversed = api::Harness{}.run_scenario(
      reversed_order(alg4), spec, source, api::Checkers{});
  expect(fails_with(judge_explore(reversed, pins), "checker"),
         "a checker violation fails a model-check round");

  // Native verification rounds: clean passes, a planted violation and a
  // call-count mismatch fail.
  const api::TimestampFamily& maxscan = api::family("maxscan");
  api::ScenarioSpec native;
  native.n = kThreads;
  native.calls_per_process = 64;
  native.backend = api::Backend::kNative;
  native.native_threads = kThreads;
  const api::ScenarioReport clean = api::Harness{}.run_scenario(
      maxscan, native, api::native_os(), api::Checkers{});
  expect(judge_native_check(clean, native.total_calls()).empty(),
         "clean native verification round passes");
  expect(fails_with(judge_native_check(clean, native.total_calls() + 1),
                    "expected"),
         "a call-count mismatch fails a native verification round");
  const api::ScenarioReport planted = api::Harness{}.run_scenario(
      reversed_order(maxscan), native, api::native_os(), api::Checkers{});
  expect(fails_with(judge_native_check(planted, native.total_calls()),
                    "checker"),
         "a checker violation fails a native verification round");

  // Throughput-round verdict: each count it checks is enforced.
  api::NativeRunStats st;
  st.calls = 8;
  st.per_thread_calls = {4, 4};
  expect(judge_native_run(st, 8).empty(), "consistent run stats pass");
  expect(!judge_native_run(st, 9).empty(), "a short run fails");
  st.per_thread_calls = {4, 3};
  expect(!judge_native_run(st, 8).empty(),
         "per-thread calls that do not sum to the calls fail");
  st.per_thread_calls = {4, 4};
  st.retired_nodes = 1;
  expect(!judge_native_run(st, 8).empty(),
         "retired nodes left after quiesce fail");

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << " (" << failures << " failures)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
