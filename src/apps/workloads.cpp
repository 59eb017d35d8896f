#include "apps/workloads.hpp"

#include <chrono>
#include <memory>

#include "analysis/cfg.hpp"
#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/webserver.hpp"
#include "campaign/runner.hpp"
#include "core/faultloads.hpp"
#include "core/profiler.hpp"
#include "core/scenario_gen.hpp"
#include "kernel/kernel_image.hpp"
#include "libc/libc_builder.hpp"
#include "util/strings.hpp"

namespace lfi::apps {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Pass-through triggers over the hottest functions — the §6.4
/// configuration: triggers are evaluated on every call but the call always
/// reaches the original library. Like the paper's plans, each function
/// carries one probabilistic trigger plus additional call-count triggers
/// for its other error returns (the "multiple triggers for the same
/// function, corresponding to different error returns").
core::Plan PassThroughPlan(int trigger_count,
                           const std::vector<std::string>& hot,
                           uint64_t seed) {
  core::Plan plan;
  plan.seed = seed;
  for (int i = 0; i < trigger_count; ++i) {
    core::FunctionTrigger t;
    t.function = hot[static_cast<size_t>(i) % hot.size()];
    if (static_cast<size_t>(i) < hot.size()) {
      t.mode = core::FunctionTrigger::Mode::Probability;
      t.probability = 0.02;
    } else {
      t.mode = core::FunctionTrigger::Mode::CallCount;
      // Distinct far-future call counts per error-return trigger.
      t.inject_call = 1'000'000'000ull + static_cast<uint64_t>(i);
    }
    t.call_original = true;  // evaluate, then pass through
    plan.triggers.push_back(std::move(t));
  }
  return plan;
}

void AddWebFiles(vm::Machine& machine) {
  machine.kernel().add_file(kIndexPath,
                            std::vector<uint8_t>(512, uint8_t{'x'}));
  machine.kernel().add_file(kPhpPath,
                            std::vector<uint8_t>(512, uint8_t{'p'}));
}

void AddDbFiles(vm::Machine& machine) {
  machine.kernel().add_file(kDbDataPath,
                            std::vector<uint8_t>(4096, uint8_t{0}));
  machine.kernel().add_file(kDbLogPath, {});
}

/// The default-config DB server image, built once and shared. Machines load
/// copies; the blueprint itself is immutable.
const std::vector<sso::SharedObject>& DbSuiteModules() {
  static const std::vector<sso::SharedObject> modules =
      BuildDbServer(DbConfig{});
  return modules;
}

}  // namespace

const std::vector<core::FaultProfile>& LibcProfiles() {
  static const std::vector<core::FaultProfile> profiles =
      ProfileStandardLibs({libc::BuildLibc()});
  return profiles;
}

std::function<void(vm::Machine&)> PidginMachineSetup() {
  auto libc_so = std::make_shared<const sso::SharedObject>(libc::BuildLibc());
  auto pidgin = std::make_shared<const sso::SharedObject>(BuildPidgin());
  return [libc_so, pidgin](vm::Machine& machine) {
    machine.Load(*libc_so).value();
    machine.Load(*pidgin).value();
  };
}

std::function<void(vm::Machine&)> DbSuiteMachineSetup() {
  auto libc_so = std::make_shared<const sso::SharedObject>(libc::BuildLibc());
  return [libc_so](vm::Machine& machine) {
    machine.Load(*libc_so).value();
    for (const sso::SharedObject& so : DbSuiteModules()) machine.Load(so).value();
    AddDbFiles(machine);
  };
}

std::vector<core::FaultProfile> ProfileStandardLibs(
    const std::vector<sso::SharedObject>& libs) {
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  for (const sso::SharedObject& so : libs) ws.AddModule(&so);
  core::Profiler profiler(ws);
  std::vector<core::FaultProfile> out;
  for (const sso::SharedObject& so : libs) {
    auto profile = profiler.ProfileLibrary(so);
    if (profile.ok()) out.push_back(std::move(profile).take());
  }
  return out;
}

WebBenchResult RunWebBench(int requests, bool php_mode, int trigger_count,
                           uint64_t seed) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(BuildLibApr()).value();
  machine.Load(BuildLibAprUtil()).value();
  machine.Load(BuildWebServer(requests, php_mode)).value();
  AddWebFiles(machine);

  core::ControllerOptions copts;
  copts.log_enabled = false;  // overhead measurement: no logging
  copts.log_backtraces = false;
  core::Controller controller(machine, copts);
  if (trigger_count > 0) {
    core::Plan plan = PassThroughPlan(trigger_count, WebHotFunctions(), seed);
    // No profiles: triggers without profile codes evaluate-and-pass-through.
    (void)controller.Install(plan, nullptr);
  }

  auto pid = machine.CreateProcess(kWebServerEntry);
  WebBenchResult result;
  result.triggers_installed = static_cast<uint64_t>(trigger_count);
  if (!pid.ok()) return result;
  auto begin = Clock::now();
  machine.RunToCompletion(pid.value(), 1'000'000'000);
  result.seconds = Seconds(begin, Clock::now());
  result.instructions = machine.total_instructions();
  return result;
}

OltpBenchResult RunOltpBench(int transactions, bool read_write,
                             int trigger_count, uint64_t seed) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  DbConfig config;
  config.transactions = transactions;
  config.read_write = read_write;
  for (sso::SharedObject& so : BuildDbServer(config)) {
    machine.Load(std::move(so)).value();
  }
  AddDbFiles(machine);

  core::ControllerOptions copts;
  copts.log_enabled = false;
  copts.log_backtraces = false;
  core::Controller controller(machine, copts);
  if (trigger_count > 0) {
    static const std::vector<std::string> hot = {
        "open", "read", "write", "close", "fsync",
        "malloc", "free", "geterrno", "lseek", "stat"};
    core::Plan plan = PassThroughPlan(trigger_count, hot, seed);
    (void)controller.Install(plan, nullptr);
  }

  auto pid = machine.CreateProcess(kDbEntry);
  OltpBenchResult result;
  if (!pid.ok()) return result;
  auto begin = Clock::now();
  machine.RunToCompletion(pid.value(), 2'000'000'000);
  result.seconds = Seconds(begin, Clock::now());
  result.instructions = machine.total_instructions();
  if (result.seconds > 0) {
    result.txns_per_sec = static_cast<double>(transactions) / result.seconds;
  }
  return result;
}

double CoverageReport::overall() const {
  size_t covered = 0, total = 0;
  for (const auto& [name, counts] : modules) {
    covered += counts.first;
    total += counts.second;
  }
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(covered) /
                          static_cast<double>(total);
}

std::pair<size_t, size_t> BlockCoverage(const sso::SharedObject& so,
                                        const vm::CoverageBitmap& executed) {
  size_t covered = 0, total = 0;
  for (const isa::Symbol& sym : so.exports) {
    auto cfg = analysis::BuildCfg(so, sym);
    if (!cfg.ok()) continue;
    auto [c, t] = cfg.value().CoveredBlocks(
        [&](uint32_t offset) { return executed.Test(offset); });
    covered += c;
    total += t;
  }
  return {covered, total};
}

CoverageReport RunDbTestSuite(bool with_lfi, int runs, double probability,
                              uint64_t seed, int jobs) {
  static const std::vector<core::FaultProfile> kNoProfiles;
  const std::vector<core::FaultProfile>& profiles =
      with_lfi ? LibcProfiles() : kNoProfiles;

  // One campaign scenario per suite run; each run's faultload is seeded
  // independently (matching the historical serial driver), so the outcome
  // is identical for any jobs count.
  std::vector<campaign::Scenario> scenarios;
  scenarios.reserve(static_cast<size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    campaign::Scenario s;
    s.name = Format("db-suite-run-%d", run);
    if (with_lfi) {
      s.plan = core::GenerateRandom(profiles, probability,
                                    seed + static_cast<uint64_t>(run) * 101);
    }
    scenarios.push_back(std::move(s));
  }

  campaign::CampaignOptions opts;
  opts.jobs = jobs;
  opts.entry = kDbTestEntry;
  opts.max_instructions = 50'000'000;
  opts.track_coverage = true;
  campaign::CampaignRunner runner(DbSuiteMachineSetup(), profiles, opts);
  campaign::CampaignReport campaign_report = runner.Run(scenarios);

  CoverageReport report;
  report.crashes = campaign_report.crashes;
  static const vm::CoverageBitmap kNoOffsets;
  for (const sso::SharedObject& so : DbSuiteModules()) {
    auto it = campaign_report.coverage.find(so.name);
    report.modules[so.name] = BlockCoverage(
        so, it == campaign_report.coverage.end() ? kNoOffsets : it->second);
  }
  return report;
}

PidginRunResult RunPidginWithPlan(const core::Plan& plan) {
  // The campaign defaults: a 50M-instruction budget and a modest heap cap,
  // so the huge bogus malloc() fails, as Pidgin's did.
  campaign::CampaignOptions opts;
  opts.entry = kPidginEntry;
  opts.collect_replays = true;
  campaign::PlanRunner runner(
      PidginMachineSetup(),
      std::make_shared<const std::vector<core::FaultProfile>>(LibcProfiles()),
      opts);
  campaign::ScenarioResult run = runner.Run(plan);
  PidginRunResult result;
  result.aborted = run.status == campaign::ScenarioStatus::Crashed &&
                   run.signal == vm::Signal::Abort;
  result.deadlocked = run.status == campaign::ScenarioStatus::Deadlocked;
  result.exit_code = run.exit_code;
  result.fault_message = run.fault_message;
  result.injections = run.injections;
  result.replay = std::move(run.replay);
  return result;
}

PidginRunResult RunPidginRandomIo(double probability, uint64_t seed) {
  core::Plan plan = core::FileIoFaultload(LibcProfiles(), probability, seed);
  return RunPidginWithPlan(plan);
}

}  // namespace lfi::apps
