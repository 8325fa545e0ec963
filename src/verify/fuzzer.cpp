#include "verify/fuzzer.hpp"

#include <algorithm>
#include <utility>

#include "verify/coverage.hpp"

namespace stamped::verify {

runtime::Schedule mutate_schedule(const std::vector<runtime::Schedule>& corpus,
                                  int num_processes, util::Rng& rng) {
  const runtime::Schedule& a = corpus[static_cast<std::size_t>(
      rng.next_below(corpus.size()))];
  runtime::Schedule out;
  switch (rng.next_below(5)) {
    case 0: {  // splice: prefix of one parent + suffix of another
      const runtime::Schedule& b = corpus[static_cast<std::size_t>(
          rng.next_below(corpus.size()))];
      const auto ca = static_cast<std::ptrdiff_t>(
          rng.next_below(a.size() + 1));
      const auto cb = static_cast<std::ptrdiff_t>(
          rng.next_below(b.size() + 1));
      out.assign(a.begin(), a.begin() + ca);
      out.insert(out.end(), b.begin() + cb, b.end());
      return out;
    }
    case 1: {  // shift a short block elsewhere
      out = a;
      if (out.size() < 2) return out;
      const auto i = static_cast<std::ptrdiff_t>(
          rng.next_below(out.size()));
      const auto len = static_cast<std::ptrdiff_t>(
          1 + rng.next_below(std::min<std::uint64_t>(
                  8, out.size() - static_cast<std::size_t>(i))));
      const std::vector<int> block(out.begin() + i, out.begin() + i + len);
      out.erase(out.begin() + i, out.begin() + i + len);
      const auto j = static_cast<std::ptrdiff_t>(
          rng.next_below(out.size() + 1));
      out.insert(out.begin() + j, block.begin(), block.end());
      return out;
    }
    case 2: {  // transpose two steps
      out = a;
      if (out.size() < 2) return out;
      const auto i = static_cast<std::size_t>(rng.next_below(out.size()));
      const auto j = static_cast<std::size_t>(rng.next_below(out.size()));
      std::swap(out[i], out[j]);
      return out;
    }
    case 3: {  // insert a solo burst
      out = a;
      const int pid = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(num_processes)));
      const auto len = 4 + rng.next_below(16);
      const auto j = static_cast<std::ptrdiff_t>(
          rng.next_below(out.size() + 1));
      out.insert(out.begin() + j, static_cast<std::size_t>(len), pid);
      return out;
    }
    default: {  // truncate
      out.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(
                                            rng.next_below(a.size() + 1)));
      return out;
    }
  }
}

FuzzResult fuzz_schedules(const InstanceFactory& factory,
                          const FuzzOptions& opts, std::uint64_t seed,
                          std::uint64_t max_steps) {
  constexpr std::uint64_t kDrySpell = 3;
  util::Rng rng(seed ^ (opts.seed * 0x9e3779b97f4a7c15ULL));
  CoverageMap cov;
  std::vector<runtime::Schedule> corpus;
  FuzzResult result;
  // Length of execution 0, which sizes the two structured guides; `dry`
  // counts consecutive executions that reached no fresh coverage.
  std::uint64_t seed_len = 0;
  std::uint64_t dry = 0;
  for (std::uint64_t e = 0; e < opts.budget; ++e) {
    ExplorationInstance inst = factory();
    runtime::ISystem& sys = *inst.sys;
    const int n = sys.num_processes();
    runtime::Schedule guide;
    if (e == 1 && seed_len > 0) {
      for (int p = 0; p < n; ++p) guide.insert(guide.end(), seed_len, p);
    } else if (e == 2 && seed_len > 0) {
      for (std::uint64_t r = 0; r < seed_len; ++r) {
        for (int p = 0; p < n; ++p) guide.push_back(p);
      }
    } else if (!corpus.empty() && e > 0 && dry < kDrySpell) {
      guide = mutate_schedule(corpus, n, rng);
    } else {
      dry = 0;  // spend this execution on a pure random probe
    }
    std::uint64_t steps = 0;
    for (int pid : guide) {
      if (steps >= max_steps) break;
      if (pid < 0 || pid >= n || sys.finished(pid)) continue;
      sys.step(pid);
      ++steps;
    }
    runtime::run_random(sys, rng, max_steps - steps);
    runtime::check_no_failures(sys);
    if (e == 0) seed_len = sys.steps_taken();
    result.all_finished = result.all_finished && sys.all_finished();
    const std::size_t fresh = cov.add_execution(sys.step_infos());
    (void)inst.check();
    dry = fresh > 0 ? 0 : dry + 1;
    if (fresh > 0) {
      corpus.push_back(sys.executed_schedule());
      if (corpus.size() > opts.max_corpus) corpus.erase(corpus.begin());
    }
  }
  result.signatures = cov.size();
  result.corpus_size = corpus.size();
  return result;
}

}  // namespace stamped::verify
