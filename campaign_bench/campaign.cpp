// db-window and pidgin-entry: a fixed, seed-derived plan set run through an
// in-process CampaignRunner with snapshot execution, over and over for the
// measured time. Every pass must reproduce the first one exactly, so the
// coverage and crash counts are exact while the throughput is a median.
#include <algorithm>
#include <cstdio>
#include <set>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "bench.hpp"
#include "campaign/explorer.hpp"
#include "core/scenario_gen.hpp"
#include "libc/libc_builder.hpp"

namespace lfi::bench {

namespace {

struct CampaignSpec {
  const char* name;
  campaign::MachineSetup (*make_setup)();
  const char* entry;
  double probability;
  size_t scenarios;  // plan-set size: one measured pass
  int jobs;
  bool mid_window;  // fault window at half a clean run (else at the entry)
};

const CampaignSpec kSpecs[] = {
    {"db-window", apps::DbSuiteMachineSetup, apps::kDbTestEntry, 0.02, 8000, 2,
     true},
    {"pidgin-entry", apps::PidginMachineSetup, apps::kPidginEntry, 0.1, 10000,
     1, false},
};

/// Cold reruns per run for the correctness check.
constexpr size_t kCheckSample = 64;
/// Scenarios per alternating untraced/traced block in the traced run.
constexpr size_t kTraceBlock = 250;

const CampaignSpec* FindSpec(const std::string& name) {
  for (const CampaignSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Everything set-up produces; the runner's worker pool is warm.
struct CampaignSetup {
  std::vector<core::FaultProfile> profiles;
  campaign::MachineSetup setup;
  campaign::CampaignOptions options;
  std::vector<campaign::Scenario> scenarios;
  std::unique_ptr<campaign::CampaignRunner> runner;
};

/// Instructions of one fault-free run: the yardstick for the fault window.
uint64_t CleanRunInstructions(const campaign::MachineSetup& setup,
                              const std::string& entry) {
  campaign::CampaignOptions opts;
  opts.entry = entry;
  campaign::CampaignRunner runner(setup, {}, opts);
  std::vector<campaign::Scenario> one(1);
  one[0].name = "clean";
  return runner.Run(one).results[0].instructions;
}

CampaignSetup BuildCampaign(const CampaignSpec& spec, uint64_t seed,
                            Tracer* tracer) {
  CampaignSetup cs;
  cs.profiles = Timed(tracer, Span::Profile, [] {
    return apps::ProfileStandardLibs({libc::BuildLibc()});
  });
  cs.setup = Timed(tracer, Span::Target, [&] { return spec.make_setup(); });
  cs.options.jobs = spec.jobs;
  cs.options.entry = spec.entry;
  cs.options.track_coverage = true;
  cs.options.snapshot = true;
  if (spec.mid_window) {
    cs.options.warmup_instructions =
        CleanRunInstructions(cs.setup, spec.entry) / 2;
  }
  Timed(tracer, Span::Generate, [&] {
    cs.scenarios.reserve(spec.scenarios);
    for (size_t i = 0; i < spec.scenarios; ++i) {
      campaign::Scenario s;
      s.name = "scn-" + std::to_string(i);
      s.plan = core::GenerateRandom(cs.profiles, spec.probability,
                                    campaign::DeriveSeed(seed, i));
      cs.scenarios.push_back(std::move(s));
    }
  });
  cs.runner = std::make_unique<campaign::CampaignRunner>(cs.setup, cs.profiles,
                                                         cs.options);
  // Warm every worker (machine build, checkpoint, snapshot) with one
  // fault-free scenario each, so the measured phase starts warm.
  std::vector<campaign::Scenario> warm(static_cast<size_t>(spec.jobs));
  for (size_t i = 0; i < warm.size(); ++i) warm[i].name = "warm";
  (void)cs.runner->Run(warm);
  return cs;
}

size_t UnionOffsets(const campaign::CampaignReport& report) {
  size_t total = 0;
  for (const auto& [mod, bitmap] : report.coverage) total += bitmap.Count();
  return total;
}

size_t CrashBuckets(const campaign::CampaignReport& report) {
  std::set<uint64_t> buckets;
  for (const campaign::ScenarioResult& r : report.results) {
    if (r.status == campaign::ScenarioStatus::Crashed) {
      buckets.insert(r.crash_hash);
    }
  }
  return buckets.size();
}

/// Re-run a deterministic sample cold through PlanRunner and compare.
void CheckColdSample(const CampaignSetup& cs,
                     const campaign::CampaignReport& report, Outcome* out) {
  campaign::CampaignOptions cold = cs.options;
  cold.snapshot = false;
  campaign::PlanRunner oracle(
      cs.setup,
      std::make_shared<const std::vector<core::FaultProfile>>(cs.profiles),
      cold);
  const size_t n = cs.scenarios.size();
  size_t mismatches = 0;
  for (size_t k = 0; k < kCheckSample && k < n; ++k) {
    const size_t i = k * n / std::min(kCheckSample, n);
    campaign::ScenarioResult r =
        oracle.Run(cs.scenarios[i].plan, cs.scenarios[i].name);
    if (!SameOutcome(r, report.results[i])) ++mismatches;
  }
  if (mismatches > 0) {
    out->Fail(mismatches, "snapshot results differ from cold reruns");
  }
}

void CountSetupErrors(const campaign::CampaignReport& report, Outcome* out) {
  if (report.setup_errors > 0) {
    out->Fail(report.setup_errors, "scenarios ended SetupError");
  }
}

Outcome Measure(const CampaignSpec& spec, const Options& options) {
  Outcome out;
  const Clock::time_point setup_begin = Clock::now();
  CampaignSetup cs = BuildCampaign(spec, options.seed, nullptr);
  const double setup_s = SecondsSince(setup_begin);
  if (options.mode == Mode::Setup) {
    out.Add("setup_s", setup_s, "s");
    return out;
  }

  const size_t n = cs.scenarios.size();
  campaign::CampaignReport first;
  std::vector<double> rates;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point pass_begin = Clock::now();
    campaign::CampaignReport report = cs.runner->Run(cs.scenarios);
    rates.push_back(static_cast<double>(n) / SecondsSince(pass_begin));
    std::fprintf(stderr, "%s pass %zu: %.0f scenarios/s\n", spec.name,
                 rates.size(), rates.back());
    out.attempted += n;
    CountSetupErrors(report, &out);
    if (rates.size() == 1) {
      first = std::move(report);
      continue;
    }
    size_t diverged = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!SameOutcome(report.results[i], first.results[i])) ++diverged;
    }
    if (diverged > 0) out.Fail(diverged, "a pass diverged from the first");
  } while (rates.size() < 3 || SecondsSince(begin) < options.seconds);

  CheckColdSample(cs, first, &out);
  out.Add("scenarios_per_s", Median(rates), "1/s");
  out.Add("setup_s", setup_s, "s");
  out.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
  out.Add("union_offsets", static_cast<double>(UnionOffsets(first)), "count");
  out.Add("crash_buckets", static_cast<double>(CrashBuckets(first)), "count");
  return out;
}

Outcome Trace(const CampaignSpec& spec, const Options& options) {
  Outcome out;
  Tracer tracer;
  CampaignSetup cs = BuildCampaign(spec, options.seed, &tracer);
  const size_t n = cs.scenarios.size();

  // The runner's own results are the reference the stepwise run must
  // reproduce.
  campaign::CampaignReport reference = cs.runner->Run(cs.scenarios);
  out.attempted += n;
  CountSetupErrors(reference, &out);
  size_t fallbacks = 0;
  for (const campaign::ScenarioResult& r : reference.results) {
    fallbacks += r.snapshot_fallback ? 1 : 0;
  }

  auto profiles =
      std::make_shared<const std::vector<core::FaultProfile>>(cs.profiles);
  // The untraced baseline runs the same per-scenario path (RunScenarioOn,
  // through PlanRunner) on an identical machine. Baseline and stepwise
  // runner alternate in blocks, so slow drift in machine speed cancels out
  // of the overhead ratio.
  campaign::PlanRunner baseline(cs.setup, profiles, cs.options);
  StepwiseRunner stepwise(cs.setup, profiles, cs.options, &tracer);
  double untraced_s = 0;
  double traced_s = 0;
  size_t mismatches = 0;
  for (size_t block = 0; block < n; block += kTraceBlock) {
    const size_t end = std::min(n, block + kTraceBlock);
    Clock::time_point t = Clock::now();
    for (size_t i = block; i < end; ++i) {
      (void)baseline.Run(cs.scenarios[i].plan, cs.scenarios[i].name);
    }
    untraced_s += SecondsSince(t);
    t = Clock::now();
    for (size_t i = block; i < end; ++i) {
      const campaign::ScenarioResult r = stepwise.Run(cs.scenarios[i]);
      if (!SameOutcome(r, reference.results[i])) ++mismatches;
    }
    traced_s += SecondsSince(t);
  }
  out.attempted += n;
  if (mismatches > 0) {
    out.Fail(mismatches, "stepwise run diverged from the runner");
  }
  CheckColdSample(cs, reference, &out);
  if (!options.trace_out.empty() && !tracer.Write(options.trace_out)) {
    out.Fail(0, "cannot write " + options.trace_out);
  }

  const StepCounts& c = stepwise.counts();
  const double per = 1e6 / static_cast<double>(n);
  const double steps = tracer.Total(Span::Restore) + tracer.Total(Span::Reset) +
                       tracer.Total(Span::Install) + tracer.Total(Span::Run) +
                       tracer.Total(Span::Collect);
  out.Add("core.profile_ms", tracer.Total(Span::Profile) * 1e3, "ms");
  out.Add("core.generate_us", tracer.Total(Span::Generate) * per, "us");
  out.Add("campaign.warm_ms", tracer.Total(Span::Warm) * 1e3, "ms");
  out.Add("serve.handshake_ms", 0, "ms");
  out.Add("vm.run_us", tracer.Total(Span::Run) * per, "us");
  out.Add("vm.instr_per_s",
          static_cast<double>(c.run_instructions) / tracer.Total(Span::Run),
          "1/s");
  out.Add("core.install_us", tracer.Total(Span::Install) * per, "us");
  out.Add("vm.restore_us", tracer.Total(Span::Restore) * per, "us");
  out.Add("vm.reset_us", tracer.Total(Span::Reset) * per, "us");
  out.Add("campaign.collect_us", tracer.Total(Span::Collect) * per, "us");
  out.Add("campaign.fallback_rate",
          static_cast<double>(fallbacks) / static_cast<double>(n), "frac");
  out.Add("serve.dispatch_ms", 0, "ms");
  out.Add("serve.codec_us", 0, "us");
  out.Add("campaign.explorer_self_ms", 0, "ms");
  out.Add("campaign.minimize_ms", 0, "ms");
  out.Add("vm.instructions", static_cast<double>(c.instructions), "count");
  out.Add("kernel.calls", static_cast<double>(c.kernel_calls), "count");
  out.Add("core.intercepted_calls", static_cast<double>(c.intercepted_calls),
          "count");
  out.Add("core.injections", static_cast<double>(c.injections), "count");
  out.Add("campaign.minimize_runs", 0, "count");
  out.Add("serve.bytes_per_scenario", 0, "B");
  out.Add("share.vm.restore", tracer.Total(Span::Restore) / traced_s, "frac");
  out.Add("share.vm.reset", tracer.Total(Span::Reset) / traced_s, "frac");
  out.Add("share.core.install", tracer.Total(Span::Install) / traced_s, "frac");
  out.Add("share.vm.run", tracer.Total(Span::Run) / traced_s, "frac");
  out.Add("share.campaign.collect", tracer.Total(Span::Collect) / traced_s,
          "frac");
  out.Add("share.serve.dispatch", 0, "frac");
  out.Add("share.campaign.minimize", 0, "frac");
  out.Add("share.campaign.explorer_self", 0, "frac");
  out.Add("trace.overhead_frac", traced_s / untraced_s - 1, "frac");
  out.Add("trace.unattributed_frac", (traced_s - steps) / traced_s, "frac");
  return out;
}

}  // namespace

bool IsCampaignWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

Outcome RunCampaignWorkload(const Options& options) {
  const CampaignSpec& spec = *FindSpec(options.workload);
  return options.mode == Mode::Trace ? Trace(spec, options)
                                     : Measure(spec, options);
}

}  // namespace lfi::bench
