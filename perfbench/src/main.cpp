// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that prints the per-layer metrics, the self-time
// table, the isolated layer probes, the ledger line and the tracing
// overhead, and writes the spans as Chrome trace-event JSON. Every metric is
// printed with its unit and sample count; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Any failed round
// makes the exit code 1. See README.md in this directory for the workloads.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Samples every run needs before it may stop: p90 needs ten rounds beyond
/// it; check_s needs enough rounds for a steady median.
constexpr std::size_t kMinRounds = 100;
constexpr std::size_t kMinChecks = 50;
/// A run that has not collected its minimum samples by this multiple of
/// --seconds stops anyway and reports what it has.
constexpr double kOvertime = 3.0;
/// Sample slots reserved per kind of round (far more than any run takes).
constexpr std::size_t kReserve = std::size_t{1} << 16;
/// Reference rounds the traced run makes after its round loop.
constexpr std::size_t kReferenceRounds = 40;

/// The strings view argv, so that parsing allocates nothing: the length of
/// an argument such as the --trace-out path, which names the checkout the
/// benchmark runs in, must not change the heap the rounds run on (see
/// kCheckShare).
struct Options {
  std::string_view workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string_view trace_out = "perfbench-trace.json";
  bool selftest = false;
};

[[noreturn]] void usage(std::string_view why, std::string_view what = {}) {
  std::cerr << "perfbench: " << why << what
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <path>]\n       perfbench "
               "--selftest\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for ", arg);
    const char* value = argv[++i];
    char* end = nullptr;  // set by the numeric options
    errno = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage("unknown argument ", arg);
    }
    if (end != nullptr && (end == value || *end != '\0' || errno != 0)) {
      usage("bad value for ", arg);
    }
  }
  if (!opt.selftest && opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

/// One printed metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Every round attempted, and the failed ones with their first reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failed <= 5) std::cout << "round failed: " << why << "\n";
  }

  template <class Fn>
  RoundResult run(Fn&& fn) {
    ++attempted;
    RoundResult r;
    try {
      r = fn();
    } catch (const std::exception& e) {
      r.failure = std::string("threw: ") + e.what();
    }
    if (!r.failure.empty()) fail(r.failure);
    return r;
  }
};

/// After warm_up, a run interleaves throughput and verification rounds until
/// --seconds have passed, the verification rounds taking kCheckShare of the
/// time, so that both kinds sample the shared host over the whole run.
/// setup_s is the median of the throughput rounds' own builds, so it
/// samples the whole run too. The round loop allocates nothing of its own
/// (sample vectors and trace storage are reserved, passing verdicts build
/// no string, the traced run's reference rounds come after the loop), and
/// both modes allocate the same before it, because a native round's speed
/// depends on where the allocator places the state its threads write: a
/// few kilobytes allocated before the loop, or a batch of builds between
/// rounds, move longlived-native rounds between about 30 and 50 ms.
constexpr double kCheckShare = 1.0 / 2.0;

/// Calls `sample` until `seconds` have passed and `enough()` holds, or
/// until kOvertime x `seconds` have passed.
template <class Enough, class Fn>
void run_phase(double seconds, Enough&& enough, Fn&& sample) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if ((elapsed >= seconds && enough()) || elapsed >= seconds * kOvertime) {
      return;
    }
    sample();
  }
}

/// Chooses between a throughput and a verification round so that the
/// verification rounds take `share` of the time spent.
class RoundMix {
 public:
  explicit RoundMix(double share) : share_(share) {}
  [[nodiscard]] bool check_next() const {
    return checks_s_ < share_ * (rounds_s_ + checks_s_);
  }
  void charge(bool check, double seconds) {
    (check ? checks_s_ : rounds_s_) += seconds;
  }

 private:
  double share_;
  double rounds_s_ = 0.0;
  double checks_s_ = 0.0;
};

/// check_s is a mean, not a median: on sharded-native the verification
/// round takes either about 19 or about 27 ms, in states that last seconds
/// and come on every CPU, so the median jumps between the two modes when
/// their mix shifts (by 28% between two sets of runs) while the mean moves
/// in proportion to the mix.
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Peak resident set of this process, in MiB. Linux keeps getrusage's
/// ru_maxrss across execve, so a process started by a larger one (python,
/// a shell) would report its launcher's peak; /proc/self/status's VmHWM
/// belongs to this process image alone. The file is read into a stack
/// buffer: a heap allocation here, before the measured run's loop, would
/// move the loop's heap placement away from the traced run's.
/// getrusage is the fallback.
double peak_rss_mb() {
  std::array<char, 4096> buf{};
  const int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd >= 0) {
    const ssize_t n = ::read(fd, buf.data(), buf.size() - 1);
    ::close(fd);
    const char* hwm = n > 0 ? std::strstr(buf.data(), "VmHWM:") : nullptr;
    if (hwm != nullptr) return std::strtod(hwm + 6, nullptr) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %-6s (n=%zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    std::cout << line;
  }
}

/// The result line: the last line of stdout.
void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The start both modes share, so that they run their rounds on the same
/// heap: one traced round of each kind into `tracer` and `layers`, which
/// registers every per-layer name (the traced loop then adds no map
/// entries), after which both are cleared and keep their storage. The
/// warm-up rounds are untimed, so one-time costs (thread-local epoch slots,
/// allocator arenas, first page faults) stay out of the medians. Returns
/// the first round's wall time.
double warm_up(Workload& w, Tally& tally, Tracer& tracer, LayerSamples& layers,
               std::uint64_t& id) {
  const RoundResult first =
      tally.run([&] { return w.round(&tracer, id++, &layers); });
  if (w.has_check_round()) {
    tally.run([&] { return w.check_round(&tracer, id++, &layers); });
  }
  tracer.clear();
  layers.clear();
  return first.seconds;
}

void print_failed_ratio(const Tally& tally) {
  std::cout << "  failed_ratio                       "
            << (tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted))
            << " (" << tally.failed << " of " << tally.attempted
            << " rounds)\n";
}

/// The end-to-end run, tracing off.
int measured_run(Workload& w, const Options& opt) {
  Tracer tracer;  // used by warm_up only, as in the traced run
  LayerSamples layers;
  Tally tally;
  const bool checks = w.has_check_round();
  std::uint64_t id = 0;
  std::vector<double> round_s;
  std::vector<double> check_s;
  std::vector<double> build_s;
  double calls = 0.0;
  double round_sum = 0.0;
  // Reserved up front, so that sample vectors never reallocate mid-run.
  for (std::vector<double>* v : {&round_s, &check_s, &build_s}) {
    v->reserve(kReserve);
  }
  const Clock::time_point start = Clock::now();
  (void)warm_up(w, tally, tracer, layers, id);
  // The footprint of building, running and checking one object, before
  // rounds that only add allocator drift.
  const double rss_mb = peak_rss_mb();
  RoundMix mix(checks ? kCheckShare : 0.0);
  run_phase(
      std::max(1.0, opt.seconds - seconds_between(start, Clock::now())),
      [&] {
        return round_s.size() >= kMinRounds &&
               (!checks || check_s.size() >= kMinChecks);
      },
      [&] {
        const bool check = mix.check_next();
        const Clock::time_point t0 = Clock::now();
        const RoundResult r = tally.run([&] {
          return check ? w.check_round(nullptr, id++, nullptr)
                       : w.round(nullptr, id++, nullptr);
        });
        mix.charge(check, seconds_between(t0, Clock::now()));
        if (!r.failure.empty()) return;
        if (check) {
          check_s.push_back(r.seconds);
        } else {
          round_s.push_back(r.seconds);
          build_s.push_back(r.build_seconds);
          calls += static_cast<double>(r.calls);
          round_sum += r.seconds;
        }
      });

  const std::vector<Metric> metrics = {
      {"setup_s", median(build_s), "s", build_s.size()},
      {"calls_per_s", round_sum > 0.0 ? calls / round_sum : 0.0, "1/s",
       round_s.size()},
      {"round_p50_us", quantile(round_s, 0.5) * 1e6, "us", round_s.size()},
      {"round_p90_us", quantile(round_s, 0.9) * 1e6, "us", round_s.size()},
      {"check_s", mean(checks ? check_s : round_s), "s",
       checks ? check_s.size() : round_s.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
  };
  print_metrics("end-to-end metrics (tracing off):", metrics);
  print_failed_ratio(tally);
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

/// Ledger: what the round's parts cost in isolation, against the measured
/// round. Returns the unexplained share and prints the line.
double print_ledger(const Workload& w, const LayerSamples& layers,
                    const ProbeResults& probes, double round) {
  double explained = 0.0;
  std::ostringstream os;
  os.precision(4);
  if (w.threads() > 0) {
    const double build = layers.median("api.build_us") * 1e-6;
    const double spawn = probes.spawn_join_us * 1e-6;
    const double per_thread = layers.median("ledger.calls") / w.threads();
    const double calls = per_thread * probes.getts_solo_ns * 1e-9;
    const double teardown = layers.median("native.teardown_us") * 1e-6;
    explained = build + spawn + calls + teardown;
    os << "build " << build * 1e6 << " us + spawn/join " << spawn * 1e6
       << " us + " << per_thread << " calls/thread x " << probes.getts_solo_ns
       << " ns solo = " << calls * 1e3 << " ms + teardown " << teardown * 1e6
       << " us";
  } else {
    const double explore = layers.median("verify.explore_s");
    const double steps =
        layers.median("verify.nodes") * probes.step_ns_full * 1e-9;
    const double checks =
        explore - layers.median("verify.unchecked_explore_s");
    explained = steps + checks;
    os << layers.median("verify.nodes") << " nodes x " << probes.step_ns_full
       << " ns/step (kFull) = " << steps * 1e3 << " ms + leaf checks "
       << checks * 1e3 << " ms";
  }
  const double unexplained = round > 0.0 ? 1.0 - explained / round : 0.0;
  std::cout << "ledger " << w.name() << ": " << os.str() << " = "
            << explained * 1e3 << " ms explained of " << round * 1e3
            << " ms measured; unexplained share " << unexplained << "\n";
  return unexplained;
}

/// The traced run: per-layer metrics, probes, self times, ledger, overhead.
int traced_run(Workload& w, const Options& opt) {
  Tracer tracer;
  LayerSamples layers;
  Tally tally;
  const bool checks = w.has_check_round();
  std::uint64_t id = 0;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (std::vector<double>* v : {&traced_s, &untraced_s}) {
    v->reserve(kReserve);
  }
  const Clock::time_point start = Clock::now();
  // The measured run's untimed warm-up, timed here: one-time work moved to
  // first use shows in bench.warmup_s.
  const double warmup_s = warm_up(w, tally, tracer, layers, id);

  // Traced and untraced throughput rounds come in pairs, so their ratio is
  // the tracing overhead under the same conditions; which goes first
  // alternates. Traced verification rounds take their share in between.
  bool traced_first = false;
  std::size_t pairs = 0;
  std::size_t check_rounds = 0;
  RoundMix mix(checks ? kCheckShare : 0.0);
  run_phase(
      std::max(1.0, opt.seconds - seconds_between(start, Clock::now())),
      [&] {
        return pairs >= kMinRounds / 2 &&
               (!checks || check_rounds >= kMinChecks / 2);
      },
      [&] {
        const std::uint64_t round_id = id++;
        const bool check = mix.check_next();
        const Clock::time_point t0 = Clock::now();
        if (check) {
          const RoundResult r = tally.run(
              [&] { return w.check_round(&tracer, round_id, &layers); });
          if (r.failure.empty()) ++check_rounds;
          mix.charge(true, seconds_between(t0, Clock::now()));
          return;
        }
        const auto plain = [&] {
          return tally.run([&] { return w.round(nullptr, round_id, nullptr); });
        };
        const auto traced = [&] {
          return tally.run(
              [&] { return w.round(&tracer, round_id, &layers); });
        };
        traced_first = !traced_first;
        const RoundResult a = traced_first ? traced() : plain();
        const RoundResult b = traced_first ? plain() : traced();
        mix.charge(false, seconds_between(t0, Clock::now()));
        if (!a.failure.empty() || !b.failure.empty()) return;
        traced_s.push_back((traced_first ? a : b).seconds);
        untraced_s.push_back((traced_first ? b : a).seconds);
        ++pairs;
      });
  // Reference rounds build objects the measured run never builds, so they
  // come after the loop rather than between its rounds.
  for (std::size_t i = 0; i < kReferenceRounds; ++i) {
    w.reference_round(layers);
  }
  const ProbeResults probes = run_probes(w.family(), &tracer);

  std::cout << "self time by span (traced rounds and probes):\n";
  for (const Tracer::SelfTime& t : tracer.self_times()) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-28s %7zu spans %12.3f ms total %12.3f ms self\n",
                  t.name.c_str(), t.spans, t.total_s * 1e3, t.self_s * 1e3);
    std::cout << line;
  }
  const double unexplained =
      print_ledger(w, layers, probes, median(traced_s));
  const double overhead = median(traced_s) / median(untraced_s);
  std::cout << "tracing overhead " << w.name() << ": traced/untraced round "
            << overhead << " over " << pairs << " pairs\n";

  const auto sampled = [&layers](const char* name, const char* unit) {
    return Metric{name, layers.median(name), unit, layers.count(name)};
  };
  const auto difference = [&layers](const char* minuend,
                                    const char* subtrahend) {
    return layers.has(minuend) && layers.has(subtrahend)
               ? layers.median(minuend) - layers.median(subtrahend)
               : 0.0;
  };
  const std::size_t p = kProbeReps;
  const double explore = layers.median("verify.explore_s");
  const std::vector<Metric> metrics = {
      sampled("atomicmem.ops_per_call", "count"),
      sampled("atomicmem.ns_per_op", "ns"),
      {"atomicmem.ctx_overhead_ns", probes.ctx_read_ns - probes.read_inline_ns,
       "ns", p},
      {"atomicmem.read_inline_ns", probes.read_inline_ns, "ns", p},
      {"atomicmem.write_inline_ns", probes.write_inline_ns, "ns", p},
      {"atomicmem.read_node_ns", probes.read_node_ns, "ns", p},
      {"atomicmem.write_node_ns", probes.write_node_ns, "ns", p},
      sampled("atomicmem.memory_bytes", "bytes"),
      sampled("atomicmem.retired_nodes", "count"),
      {"core.getts_solo_ns", probes.getts_solo_ns, "ns", p},
      sampled("core.scans_per_call", "count"),
      {"core.registers", static_cast<double>(w.registers()), "count", 1},
      sampled("native.run_ms", "ms"),
      {"native.spawn_join_us", probes.spawn_join_us, "us", kSpawnReps},
      sampled("native.teardown_us", "us"),
      sampled("native.recorder_bytes_per_call", "bytes"),
      {"native.record_ns", probes.record_ns, "ns", p},
      sampled("native.merge_ms", "ms"),
      sampled("verify.check_share", "ratio"),
      sampled("verify.pairs_per_s", "1/s"),
      sampled("shard.avg_batch", "count"),
      {"shard.max_batch", layers.max("shard.max_batch"), "count",
       layers.count("shard.max_batch")},
      sampled("shard.passes_per_kcall", "count"),
      sampled("shard.steals_per_kcall", "count"),
      sampled("shard.expiries_per_kcall", "count"),
      sampled("shard.claim_losses_per_kcall", "count"),
      {"shard.added_ns_per_call",
       difference("shard.run_ns_per_call", "shard.unsharded_run_ns_per_call"),
       "ns", layers.count("shard.unsharded_run_ns_per_call")},
      {"runtime.step_ns_full", probes.step_ns_full, "ns", kStepReps},
      {"runtime.step_ns_counts", probes.step_ns_counts, "ns", kStepReps},
      {"runtime.make_us", probes.make_us, "us", p},
      sampled("verify.executions", "count"),
      sampled("verify.nodes", "count"),
      sampled("verify.persistent_deferred", "count"),
      sampled("verify.ns_per_node", "ns"),
      {"verify.leaf_check_share",
       explore > 0.0
           ? difference("verify.explore_s", "verify.unchecked_explore_s") /
                 explore
           : 0.0,
       "ratio", layers.count("verify.unchecked_explore_s")},
      sampled("api.build_us", "us"),
      {"bench.warmup_s", warmup_s, "s", 1},
      {"bench.trace_overhead", overhead, "x", pairs},
      {"ledger.unexplained_share", unexplained, "ratio", pairs},
  };
  print_metrics("per-layer metrics (traced run; 0 with n=0 = layer not on "
                "this workload's path):",
                metrics);
  print_failed_ratio(tally);
  if (tracer.write_chrome_json(std::string(opt.trace_out))) {
    std::cout << "trace: " << tracer.spans().size() << " spans written to "
              << opt.trace_out << "\n";
  } else {
    std::cout << "trace: could not write " << opt.trace_out << "\n";
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A static stdout buffer: stdio would otherwise allocate one on first
  // output, sized by whether stdout is a terminal, a pipe or a file, and
  // so make the rounds' heap depend on where the output goes.
  static std::array<char, std::size_t{1} << 16> stdout_buffer;
  std::setvbuf(stdout, stdout_buffer.data(), _IOFBF, stdout_buffer.size());
  const Options opt = parse(argc, argv);
  if (opt.selftest) return run_selftest();
  const std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) usage("unknown workload ", opt.workload);
  std::cout << "perfbench workload=" << w->name() << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\n  " << w->describe()
            << "\n  seed: passed as ScenarioSpec::seed; no workload draws "
               "from it (the OS schedules native runs, the explorer is "
               "exhaustive)\n";
  return opt.trace ? traced_run(*w, opt) : measured_run(*w, opt);
}
