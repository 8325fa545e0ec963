#include "analysis/footprint.hpp"

#include <bit>
#include <sstream>
#include <utility>

#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace stamped::analysis {

namespace {

/// Harvests one finished (or step-capped) run's step infos into the map and
/// its completion evidence into the observation.
void harvest(runtime::ISystem& sys, ObservedFootprint& out) {
  for (const runtime::StepInfo& s : sys.step_infos()) {
    out.map.record(s.pid, s.kind, s.reg);
  }
  if (!sys.all_finished()) return;
  ++out.complete_runs;
  for (int r = 0; r < sys.num_registers(); ++r) {
    if (!sys.register_written(r)) {
      out.unwritten_in_complete_run[static_cast<std::size_t>(r)] = true;
    }
  }
}

/// Sequential-solo schedule: processes run to completion one after another,
/// in `order` — the canonical SWMR witness (every declared writer actually
/// writes) and the run the sentinel rule leans on.
void run_sequential(runtime::ISystem& sys, bool reversed,
                    std::uint64_t max_steps) {
  const int n = sys.num_processes();
  std::uint64_t budget = max_steps;
  for (int i = 0; i < n && budget > 0; ++i) {
    const int p = reversed ? n - 1 - i : i;
    while (!sys.finished(p) && budget > 0) {
      sys.step(p);
      --budget;
    }
  }
}

}  // namespace

ObservedFootprint observe_footprint(const api::TimestampFamily& family,
                                    const api::ScenarioSpec& spec,
                                    const ObserveOptions& opts) {
  STAMPED_ASSERT_MSG(family.factory != nullptr,
                     "family '" << family.name << "' has no factory");
  STAMPED_ASSERT_MSG(family.supports(spec),
                     "family '" << family.name
                                << "' does not support this scenario");
  // The access map is read off the step infos, which kCountsOnly discards;
  // reject the conflict loudly rather than observe nothing.
  STAMPED_ASSERT_MSG(spec.recording == runtime::RecordingMode::kFull,
                     "footprint observation requires "
                     "ScenarioSpec::recording == kFull");
  const runtime::SystemFactory make = family.factory(spec);

  ObservedFootprint out;
  {
    // One probe run fixes the geometry (n, m) for the merged map.
    std::unique_ptr<runtime::ISystem> probe = make();
    out.map = AccessMap(probe->num_processes(), probe->num_registers());
    out.unwritten_in_complete_run.assign(
        static_cast<std::size_t>(probe->num_registers()), false);
  }

  for (const bool reversed : {false, true}) {
    std::unique_ptr<runtime::ISystem> sys = make();
    run_sequential(*sys, reversed, opts.max_steps);
    runtime::check_no_failures(*sys);
    harvest(*sys, out);
  }
  {
    std::unique_ptr<runtime::ISystem> sys = make();
    runtime::run_round_robin(*sys, opts.max_steps);
    runtime::check_no_failures(*sys);
    harvest(*sys, out);
  }
  for (int i = 0; i < opts.random_schedules; ++i) {
    std::unique_ptr<runtime::ISystem> sys = make();
    util::Rng rng(opts.seed + static_cast<std::uint64_t>(i));
    runtime::run_random(*sys, rng, opts.max_steps);
    runtime::check_no_failures(*sys);
    harvest(*sys, out);
  }
  return out;
}

std::string LintReport::to_string() const {
  if (issues.empty()) return {};
  std::ostringstream os;
  os << "footprint lint: " << issues.size() << " issue(s) in family '"
     << family << "'";
  for (const LintIssue& i : issues) {
    os << "\n  ";
    if (i.reg >= 0) os << "reg " << i.reg << ": ";
    os << i.message;
  }
  return std::move(os).str();
}

LintReport lint_footprints(const api::TimestampFamily& family,
                           const api::ScenarioSpec& spec,
                           const ObserveOptions& opts) {
  LintReport report;
  report.family = family.name;
  const api::FootprintSpec& fp = family.footprint;
  if (!fp.declared()) {
    report.issues.push_back(
        {-1, "family declares no footprint (FootprintSpec::writer_mask "
             "unset); the ownership discipline cannot be checked"});
    return report;
  }

  report.observed = observe_footprint(family, spec, opts);
  const AccessMap& map = report.observed.map;
  const std::uint64_t live = spec.n >= 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << spec.n) - 1;

  for (int r = 0; r < map.num_registers(); ++r) {
    const RegisterAccess& obs = map.reg(r);
    const std::uint64_t declared = fp.writer_mask(spec, r) & live;

    if (fp.ownership == api::Ownership::kSWMR &&
        std::popcount(declared) > 1) {
      report.issues.push_back(
          {r, "declared SWMR but writer mask " + pid_mask_repr(declared) +
                  " names several writers"});
    }
    if (const std::uint64_t rogue = obs.writer_mask & ~declared; rogue != 0) {
      report.issues.push_back(
          {r, "undeclared writer(s) " + pid_mask_repr(rogue) +
                  " observed; declared mask is " + pid_mask_repr(declared)});
    }
    if (fp.ownership == api::Ownership::kSWMR &&
        std::popcount(obs.writer_mask) > 1) {
      report.issues.push_back(
          {r, "multi-writer register in an SWMR family: observed writers " +
                  pid_mask_repr(obs.writer_mask)});
    }
    const bool unwritten =
        report.observed.unwritten_in_complete_run[static_cast<std::size_t>(
            r)];
    if (unwritten && fp.may_be_unwritten != nullptr &&
        !fp.may_be_unwritten(spec, r)) {
      report.issues.push_back(
          {r, "never written in a complete run but not declared a sentinel "
              "(FootprintSpec::may_be_unwritten is false)"});
    }
    if (declared == 0 && obs.written()) {
      report.issues.push_back(
          {r, "declared a hard sentinel (empty writer mask) but " +
                  std::to_string(obs.writes) + " write(s) observed from " +
                  pid_mask_repr(obs.writer_mask)});
    }
    if (const std::uint32_t bad = obs.op_kinds & ~fp.allowed_ops; bad != 0) {
      report.issues.push_back(
          {r, "op kind(s) outside the declared set (observed mask 0x" +
                  [bad] {
                    std::ostringstream os;
                    os << std::hex << bad;
                    return std::move(os).str();
                  }() +
                  ")"});
    }
  }
  if (report.observed.complete_runs == 0) {
    report.issues.push_back(
        {-1, "no schedule in the battery ran to completion (step budget too "
             "small?); the sentinel rule has no evidence"});
  }
  return report;
}

std::shared_ptr<const verify::WriteFootprints> write_footprints(
    const api::TimestampFamily& family, const api::ScenarioSpec& spec) {
  const api::FootprintSpec& fp = family.footprint;
  STAMPED_ASSERT_MSG(fp.declared(), "family '" << family.name
                                               << "' declares no footprint");
  const std::int64_t m = family.registers_allocated != nullptr
                             ? family.registers_allocated(spec)
                             : 0;
  STAMPED_ASSERT_MSG(m > 0, "family '" << family.name
                                       << "' reports no allocation bound");
  const std::uint64_t live = spec.n >= 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << spec.n) - 1;
  auto out = std::make_shared<verify::WriteFootprints>();
  out->reg_writers.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    out->reg_writers.push_back(fp.writer_mask(spec, r) & live);
  }
  return out;
}

}  // namespace stamped::analysis
