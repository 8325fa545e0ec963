#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "analysis/footprint.hpp"
#include "api/registry.hpp"
#include "shard/sharded_instance.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double LayerSamples::max(std::string_view name) const {
  const auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) return 0.0;
  return *std::max_element(it->second.begin(), it->second.end());
}

std::string judge_native_run(const api::NativeRunStats& st,
                             std::int64_t expected_calls) {
  const std::uint64_t per_thread =
      std::accumulate(st.per_thread_calls.begin(), st.per_thread_calls.end(),
                      std::uint64_t{0});
  const auto expected = static_cast<std::uint64_t>(expected_calls);
  // Passing rounds allocate nothing here: the round loop must not perturb
  // the heap between rounds (see kCheckShare in main.cpp).
  if (st.calls == expected && per_thread == st.calls &&
      st.retired_nodes == 0) {
    return {};
  }
  std::ostringstream why;
  if (st.calls != expected) {
    why << "completed " << st.calls << " calls, expected " << expected_calls;
  } else if (per_thread != st.calls) {
    why << "per-thread calls sum to " << per_thread << ", not " << st.calls;
  } else {
    why << st.retired_nodes << " retired nodes left after quiesce";
  }
  return why.str();
}

std::string judge_native_check(const api::ScenarioReport& rep,
                               std::int64_t expected_calls) {
  if (!rep.ok()) return "checker: " + rep.violations.front();
  api::NativeRunStats st;
  st.calls = rep.calls;
  st.per_thread_calls = rep.native_thread_calls;
  st.retired_nodes = rep.retired_nodes;
  return judge_native_run(st, expected_calls);
}

std::string judge_explore(const api::ScenarioReport& rep,
                          const ExplorePins& pins) {
  std::ostringstream why;
  if (!rep.ok()) {
    why << "checker: " << rep.violations.front();
  } else if (!rep.all_finished || rep.budget_exhausted) {
    why << "exploration cut short";
  } else if (rep.executions != pins.executions || rep.nodes != pins.nodes ||
             rep.persistent_deferred != pins.persistent_deferred) {
    why << "explored " << rep.executions << " executions / " << rep.nodes
        << " nodes / " << rep.persistent_deferred
        << " deferred, pinned " << pins.executions << " / " << pins.nodes
        << " / " << pins.persistent_deferred;
  }
  return why.str();
}

api::ScenarioSpec model_check_spec(std::uint64_t seed) {
  api::ScenarioSpec spec;
  spec.n = 4;
  spec.seed = seed;
  return spec;
}

api::ScheduleSource model_check_source() {
  verify::ExploreOptions opts;
  opts.por = true;
  opts.persistent = true;
  opts.exact_footprints = true;
  opts.threads = 1;
  return api::exhaustive_explorer(opts);
}

ExplorePins model_check_pins() { return {714, 9276, 3831}; }

namespace {

/// One built native round object: a plain instance or a sharded service.
struct NativeObject {
  std::unique_ptr<api::FamilyInstance> plain;
  std::unique_ptr<shard::ShardedInstance> sharded;

  api::NativeRunStats run() {
    return plain ? plain->run_native(kThreads) : sharded->run_native(kThreads);
  }
  [[nodiscard]] api::Metrics metrics() const {
    return plain ? plain->metrics() : sharded->metrics();
  }
  /// Merges the recorded histories the checkers read; returns the record
  /// count so the merge cannot be optimized away.
  [[nodiscard]] std::size_t merge() const {
    if (plain) return plain->calls().size();
    std::size_t records = sharded->composed_calls().size();
    for (int s = 0; s < sharded->shard_stats().shards; ++s) {
      records += sharded->shard_calls(s).size();
    }
    return records;
  }
};

std::int64_t metric_or_zero(const api::Metrics& metrics,
                            const std::string& key) {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return 0;
}

/// A family on real threads, plain (make_native) or through the sharded
/// service (make_sharded, when the spec names shards).
class NativeWorkload final : public Workload {
 public:
  NativeWorkload(std::string name, const api::TimestampFamily& fam,
                 api::ScenarioSpec run, api::ScenarioSpec check)
      : name_(std::move(name)),
        fam_(fam),
        run_(std::move(run)),
        check_(std::move(check)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << fam_.name << (run_.sharded() ? " via make_sharded (" : " (")
       << run_.n << " clients";
    if (run_.sharded()) os << ", " << run_.shard.shards << " shard";
    os << ") on " << kThreads << " threads, " << run_.calls_per_process
       << " calls per client per round; verification round "
       << check_.n << "x" << check_.calls_per_process
       << " calls through Harness::run_scenario";
    return os.str();
  }

  [[nodiscard]] const api::TimestampFamily& family() const override {
    return fam_;
  }

  [[nodiscard]] std::int64_t registers() const override {
    if (!run_.sharded()) return fam_.registers_allocated(run_);
    return build(run_).sharded->shard_stats().total_registers;
  }

  [[nodiscard]] int threads() const override { return kThreads; }

  RoundResult round(Tracer* tracer, std::uint64_t id,
                    LayerSamples* layers) override {
    Scope round(tracer, "round", id);
    Scope b(tracer, "api.build", id);
    NativeObject obj = build(run_);
    const double build_s = b.stop();

    Scope r(tracer, "native.run", id);
    const api::NativeRunStats st = obj.run();
    const double run_s = r.stop();
    r.arg("calls", static_cast<double>(st.calls));
    r.arg("ops", static_cast<double>(st.ops));
    r.arg("memory_bytes", static_cast<double>(st.memory_arena_bytes));
    r.arg("recorder_bytes", static_cast<double>(st.recorder_arena_bytes));
    RoundResult out;
    out.build_seconds = build_s;
    out.calls = st.calls;
    out.failure = judge_native_run(st, run_.total_calls());
    if (layers != nullptr) note_run(obj, st, run_s, r, *layers);

    Scope t(tracer, "api.teardown", id);
    obj = {};
    const double teardown_s = t.stop();
    out.seconds = round.stop();
    if (layers != nullptr) {
      layers->add("api.build_us", build_s * 1e6);
      layers->add("native.run_ms", run_s * 1e3);
      layers->add("native.teardown_us", teardown_s * 1e6);
    }
    return out;
  }

  [[nodiscard]] bool has_check_round() const override { return true; }

  RoundResult check_round(Tracer* tracer, std::uint64_t id,
                          LayerSamples* layers) override {
    Scope round(tracer, "round", id);
    round.arg("verification", 1);
    Scope c(tracer, "api.check", id);
    const api::ScenarioReport rep = api::Harness{}.run_scenario(
        fam_, check_, api::native_os(), api::Checkers{});
    const double check_s = c.stop();
    const double pairs = static_cast<double>(
        rep.ordered_pairs + rep.concurrent_pairs + rep.filtered_pairs +
        rep.cross_shard_pairs);
    c.arg("calls", static_cast<double>(rep.calls));
    c.arg("pairs", pairs);
    c.arg("ordered_pairs", static_cast<double>(rep.ordered_pairs));
    c.arg("concurrent_pairs", static_cast<double>(rep.concurrent_pairs));
    c.arg("violations", static_cast<double>(rep.violations.size()));
    RoundResult out;
    out.calls = rep.calls;
    out.failure = judge_native_check(rep, check_.total_calls());
    out.seconds = check_s;
    if (layers == nullptr) return out;

    // The same build, run and merge outside the harness, timed on their
    // own; what is left of the verification round is the checkers.
    Scope b(tracer, "api.build", id);
    NativeObject obj = build(check_);
    const double build_s = b.stop();
    Scope r(tracer, "native.run", id);
    const api::NativeRunStats st = obj.run();
    const double run_s = r.stop();
    Scope m(tracer, "native.merge", id);
    const std::size_t records = obj.merge();
    const double merge_s = m.stop();
    m.arg("records", static_cast<double>(records));
    Scope t(tracer, "api.teardown", id);
    obj = {};
    const double teardown_s = t.stop();
    if (out.failure.empty()) {
      out.failure = judge_native_run(st, check_.total_calls());
    }
    const double checker_s = check_s - build_s - run_s - merge_s - teardown_s;
    layers->add("native.merge_ms", merge_s * 1e3);
    layers->add("verify.check_share", checker_s / check_s);
    if (checker_s > 0.0) layers->add("verify.pairs_per_s", pairs / checker_s);
    return out;
  }

  void reference_round(LayerSamples& layers) override {
    if (!run_.sharded()) return;
    // The same clients and calls without the shard layer.
    api::ScenarioSpec plain = run_;
    plain.shard = api::ShardSpec{};
    NativeObject obj = build(plain);
    const Clock::time_point t0 = Clock::now();
    const api::NativeRunStats st = obj.run();
    const double run_s = seconds_between(t0, Clock::now());
    if (judge_native_run(st, plain.total_calls()).empty()) {
      layers.add("shard.unsharded_run_ns_per_call",
                 run_s * 1e9 / static_cast<double>(st.calls));
    }
  }

 private:
  [[nodiscard]] NativeObject build(const api::ScenarioSpec& spec) const {
    NativeObject obj;
    if (spec.sharded()) {
      obj.sharded = fam_.make_sharded(spec);
    } else {
      obj.plain = fam_.make_native(spec);
    }
    return obj;
  }

  void note_run(const NativeObject& obj, const api::NativeRunStats& st,
                double run_s, Scope& span, LayerSamples& layers) const {
    const auto calls = static_cast<double>(st.calls);
    const auto ops = static_cast<double>(st.ops);
    layers.add("atomicmem.ops_per_call", ops / calls);
    layers.add("atomicmem.ns_per_op", run_s * st.threads * 1e9 / ops);
    layers.add("atomicmem.memory_bytes",
               static_cast<double>(st.memory_arena_bytes));
    layers.add("atomicmem.retired_nodes",
               static_cast<double>(st.retired_nodes));
    layers.add("native.recorder_bytes_per_call",
               static_cast<double>(st.recorder_arena_bytes) / calls);
    layers.add("core.scans_per_call",
               static_cast<double>(metric_or_zero(obj.metrics(), "scans")) /
                   calls);
    layers.add("ledger.calls", calls);
    if (!obj.sharded) return;
    const shard::ShardRunStats ss = obj.sharded->shard_stats();
    const double per_kcall = 1000.0 / calls;
    span.arg("passes", static_cast<double>(ss.combiner_passes));
    span.arg("max_batch", static_cast<double>(ss.max_batch));
    span.arg("steals", static_cast<double>(ss.lease_steals));
    layers.add("shard.avg_batch", ss.avg_batch());
    layers.add("shard.max_batch", static_cast<double>(ss.max_batch));
    layers.add("shard.passes_per_kcall",
               static_cast<double>(ss.combiner_passes) * per_kcall);
    layers.add("shard.steals_per_kcall",
               static_cast<double>(ss.lease_steals) * per_kcall);
    layers.add("shard.expiries_per_kcall",
               static_cast<double>(ss.lease_expiries) * per_kcall);
    layers.add("shard.claim_losses_per_kcall",
               static_cast<double>(ss.claim_losses) * per_kcall);
    layers.add("shard.run_ns_per_call", run_s * 1e9 / calls);
  }

  std::string name_;
  const api::TimestampFamily& fam_;
  api::ScenarioSpec run_;
  api::ScenarioSpec check_;
};

/// Exhaustive exploration of sqrt-oneshot n=4 on the simulator: every
/// round is a verification round with pinned exploration counts.
class ModelCheckWorkload final : public Workload {
 public:
  explicit ModelCheckWorkload(std::uint64_t seed)
      : fam_(api::family("sqrt-oneshot")),
        spec_(model_check_spec(seed)),
        source_(model_check_source()),
        pins_(model_check_pins()) {}

  [[nodiscard]] std::string name() const override { return "model-check"; }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << fam_.name << " n=" << spec_.n
       << " under the exhaustive explorer (por + persistent + exact "
          "footprints, serial) with default checkers; pinned "
       << pins_.executions << " executions / " << pins_.nodes << " nodes";
    return os.str();
  }

  [[nodiscard]] const api::TimestampFamily& family() const override {
    return fam_;
  }
  [[nodiscard]] std::int64_t registers() const override {
    return fam_.registers_allocated(spec_);
  }
  [[nodiscard]] int threads() const override { return 0; }

  RoundResult round(Tracer* tracer, std::uint64_t id,
                    LayerSamples* layers) override {
    Scope round(tracer, "round", id);
    // The round's object as a user would build it; the harness builds its
    // own per explored execution.
    Scope b(tracer, "api.build", id);
    const std::shared_ptr<const verify::WriteFootprints> footprints =
        analysis::write_footprints(fam_, spec_);
    const std::unique_ptr<api::FamilyInstance> built = fam_.make(spec_);
    const double build_s = b.stop();
    Scope e(tracer, "verify.explore", id);
    const api::ScenarioReport rep =
        api::Harness{}.run_scenario(fam_, spec_, source_, api::Checkers{});
    const double explore_s = e.stop();
    e.arg("executions", static_cast<double>(rep.executions));
    e.arg("nodes", static_cast<double>(rep.nodes));
    e.arg("persistent_deferred", static_cast<double>(rep.persistent_deferred));
    e.arg("sleep_pruned", static_cast<double>(rep.sleep_pruned));
    e.arg("pairs", static_cast<double>(rep.ordered_pairs +
                                       rep.concurrent_pairs));
    RoundResult out;
    out.build_seconds = build_s;
    out.failure = judge_explore(rep, pins_);
    // Each round certifies the scenario's n getTS calls.
    out.calls = static_cast<std::uint64_t>(spec_.total_calls());
    out.seconds = round.stop();
    if (layers != nullptr) {
      layers->add("api.build_us", build_s * 1e6);
      layers->add("verify.executions", static_cast<double>(rep.executions));
      layers->add("verify.nodes", static_cast<double>(rep.nodes));
      layers->add("verify.persistent_deferred",
                  static_cast<double>(rep.persistent_deferred));
      layers->add("verify.explore_s", explore_s);
      layers->add("verify.ns_per_node",
                  explore_s * 1e9 / static_cast<double>(rep.nodes));
    }
    return out;
  }

  [[nodiscard]] bool has_check_round() const override { return false; }

  RoundResult check_round(Tracer* tracer, std::uint64_t id,
                          LayerSamples* layers) override {
    return round(tracer, id, layers);
  }

  void reference_round(LayerSamples& layers) override {
    const Clock::time_point t0 = Clock::now();
    const api::ScenarioReport rep = api::Harness{}.run_scenario(
        fam_, spec_, source_, api::Checkers::none());
    const double explore_s = seconds_between(t0, Clock::now());
    if (rep.executions == pins_.executions) {
      layers.add("verify.unchecked_explore_s", explore_s);
    }
  }

 private:
  const api::TimestampFamily& fam_;
  api::ScenarioSpec spec_;
  api::ScheduleSource source_;
  ExplorePins pins_;
};

api::ScenarioSpec native_spec(int n, int calls, std::uint64_t seed) {
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = calls;
  spec.seed = seed;
  spec.backend = api::Backend::kNative;
  spec.native_threads = kThreads;
  return spec;
}

api::ScenarioSpec one_shard(api::ScenarioSpec spec) {
  spec.shard.shards = 1;
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "longlived-native", "oneshot-native", "sharded-native", "model-check"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "longlived-native") {
    return std::make_unique<NativeWorkload>(
        "longlived-native", api::family("maxscan"),
        native_spec(4, 20000, seed), native_spec(4, 512, seed));
  }
  if (name == "oneshot-native") {
    const api::ScenarioSpec spec = native_spec(1024, 1, seed);
    return std::make_unique<NativeWorkload>(
        "oneshot-native", api::family("sqrt-oneshot"), spec, spec);
  }
  if (name == "sharded-native") {
    return std::make_unique<NativeWorkload>(
        "sharded-native", api::family("maxscan"),
        one_shard(native_spec(4, 20000, seed)),
        one_shard(native_spec(4, 256, seed)));
  }
  if (name == "model-check") {
    return std::make_unique<ModelCheckWorkload>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
