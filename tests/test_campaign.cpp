// Campaign engine tests: report aggregation, crash triage fields, and
// machine reset/reuse. Report identity across jobs counts, engines,
// snapshot modes and the fabric is test_matrix's.
#include <gtest/gtest.h>

#include <atomic>

#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "campaign/triage.hpp"
#include "core/scenario_gen.hpp"
#include "isa/codebuilder.hpp"
#include "libc/libc_builder.hpp"
#include "test_helpers.hpp"

namespace lfi::campaign {
namespace {

using isa::CodeBuilder;
using isa::Reg;
using test::RandomScenarios;
using test::ReaderSetup;

/// Appends 8 bytes to /log and exits with the resulting file size — a
/// canary for state leaking between scenarios on a reused machine.
sso::SharedObject BuildAppenderApp() {
  CodeBuilder b;
  uint32_t path = b.emit_data({'/', 'l', 'o', 'g', 0});
  uint32_t payload = b.emit_data({'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'});
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.mov_ri(Reg::R2, libc::O_RDWR | libc::O_CREAT | libc::O_APPEND);
  b.lea_data(Reg::R1, static_cast<int32_t>(path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -8, Reg::R0);
  b.load(Reg::R1, Reg::BP, -8);
  b.lea_data(Reg::R2, static_cast<int32_t>(payload));
  b.mov_ri(Reg::R3, 8);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("write");
  b.add_ri(Reg::SP, 24);
  // size = lseek(fd, 0, SEEK_END)
  b.load(Reg::R1, Reg::BP, -8);
  b.mov_ri(Reg::R2, 0);
  b.mov_ri(Reg::R3, 2);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("lseek");
  b.add_ri(Reg::SP, 24);
  b.store(Reg::BP, -16, Reg::R0);
  b.load(Reg::R1, Reg::BP, -8);
  b.push(Reg::R1);
  b.call_sym("close");
  b.add_ri(Reg::SP, 8);
  b.load(Reg::R0, Reg::BP, -16);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("appender.so", b.Finish(), {libc::kLibcName});
}

CampaignReport RunReaderCampaign(const std::vector<Scenario>& scenarios,
                                 int jobs) {
  CampaignOptions opts;
  opts.jobs = jobs;
  opts.track_coverage = true;
  CampaignRunner runner(ReaderSetup(), apps::LibcProfiles(), opts);
  return runner.Run(scenarios);
}

// The per-module coverage breakdown must account for every covered
// offset: the sum of covered_by_module equals the covered_offsets
// popcount, and (with collect_scenario_coverage on) each module's bitmap
// popcount equals its breakdown entry.
TEST(Campaign, PerModuleCoverageSumsToPopcount) {
  std::vector<Scenario> scenarios = RandomScenarios(12, 0.3, 9);
  CampaignOptions opts;
  opts.jobs = 2;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  CampaignRunner runner(ReaderSetup(), apps::LibcProfiles(), opts);
  CampaignReport report = runner.Run(scenarios);

  for (const ScenarioResult& r : report.results) {
    ASSERT_GT(r.covered_offsets, 0u) << r.name;
    size_t sum = 0;
    for (const auto& [mod, count] : r.covered_by_module) {
      EXPECT_GT(count, 0u) << mod << " in " << r.name;
      sum += count;
    }
    EXPECT_EQ(sum, r.covered_offsets) << r.name;
    // Bitmap popcounts match the breakdown, module by module.
    ASSERT_EQ(r.coverage.size(), r.covered_by_module.size()) << r.name;
    for (const auto& [mod, bitmap] : r.coverage) {
      auto it = r.covered_by_module.find(mod);
      ASSERT_NE(it, r.covered_by_module.end()) << mod << " in " << r.name;
      EXPECT_EQ(bitmap.Count(), it->second) << mod << " in " << r.name;
    }
  }
}

// A bucket keys on the signal, the frames and the set of distinct faults:
// not on how often a fault fired, and a pass-through is not a replacement.
TEST(Campaign, CrashHashKeysOnSiteAndDistinctFaults) {
  const std::vector<std::string> frames = {"read+0x12", "main+0x40"};
  EXPECT_NE(CrashSiteHash(vm::Signal::Segv, frames),
            CrashSiteHash(vm::Signal::Abort, frames));
  auto hash = [&](const std::vector<bool>& call_original) {
    core::InjectionLog log;
    for (bool original : call_original) {
      core::InjectionRecord r;
      r.function = log.Intern("read");
      r.has_retval = true;
      r.retval = -1;
      r.call_original = original;
      log.Add(r);
    }
    return CrashHash(vm::Signal::Segv, frames, log);
  };
  EXPECT_EQ(hash({false}), hash({false, false}));
  EXPECT_NE(hash({false}), hash({true}));
}

// PlanRunner::log() holds the last Run's records only: a warm runner
// resets its controller before every plan, so after two different plans
// its log is the second plan's log on a fresh runner.
TEST(Campaign, PlanRunnerLogHoldsOnlyTheLastRun) {
  std::vector<Scenario> plans = RandomScenarios(2, 0.1, 7);
  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  CampaignOptions opts;
  opts.entry = apps::kPidginEntry;
  PlanRunner warm(apps::PidginMachineSetup(), profiles, opts);
  ScenarioResult first = warm.Run(plans[0].plan);
  EXPECT_EQ(warm.log().size(), first.injections);
  ScenarioResult second = warm.Run(plans[1].plan);
  EXPECT_EQ(warm.log().size(), second.injections);
  // Two different non-zero counts, or the checks above show nothing.
  ASSERT_GT(first.injections, 0u);
  ASSERT_GT(second.injections, 0u);
  ASSERT_NE(first.injections, second.injections);

  PlanRunner fresh(apps::PidginMachineSetup(), profiles, opts);
  ScenarioResult alone = fresh.Run(plans[1].plan);
  EXPECT_EQ(second.injections, alone.injections);
  EXPECT_EQ(warm.log().ToText(), fresh.log().ToText());
}

/// Every ScenarioResult field but wall time and the restore telemetry
/// (which depends on what the previous scenario dirtied).
void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.signal, b.signal);
  EXPECT_EQ(a.fault_message, b.fault_message);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.covered_offsets, b.covered_offsets);
  EXPECT_EQ(a.covered_by_module, b.covered_by_module);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.fault_frames, b.fault_frames);
  EXPECT_EQ(a.crash_site_hash, b.crash_site_hash);
  EXPECT_EQ(a.crash_hash, b.crash_hash);
  EXPECT_EQ(a.replay.ToXml(), b.replay.ToXml());
  EXPECT_EQ(a.first_injection_instructions, b.first_injection_instructions);
  EXPECT_EQ(a.snapshot_fallback, b.snapshot_fallback);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.seu_landed, b.seu_landed);
}

// A warm PlanRunner re-arms the registered stubs when a plan repeats the
// trigger list and rebuilds them when it does not. Interleave both kinds —
// the same triggers under a new seed, a changed probability, an added SEU,
// a plan naming the entry (which runs cold) — and every result must equal
// a fresh runner's.
TEST(Campaign, RearmedPlansMatchAFreshRunner) {
  CampaignOptions opts;
  opts.entry = apps::kPidginEntry;
  opts.snapshot = true;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  opts.collect_state_digest = true;
  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  const core::Plan base = core::GenerateRandom(*profiles, 0.3, 11);
  ASSERT_FALSE(base.triggers.empty());
  core::Plan reseeded = base;
  reseeded.seed = 12;
  core::Plan reweighted = base;
  reweighted.triggers[0].probability = 0.9;
  core::Plan flipped = base;
  core::SeuFault seu;
  seu.target = core::SeuFault::Target::Reg;
  seu.reg = 3;
  seu.bit = 5;
  seu.at_instruction = 40;
  flipped.seus.push_back(seu);
  core::Plan names_entry = base;
  names_entry.triggers.push_back(base.triggers[0]);
  names_entry.triggers.back().function = apps::kPidginEntry;
  const std::vector<const core::Plan*> order = {
      &base,   &reseeded, &base,        &reweighted, &reweighted, &flipped,
      &base,   &names_entry, &reseeded, &flipped,    &base};
  PlanRunner warm(apps::PidginMachineSetup(), profiles, opts);
  size_t injections = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    SCOPED_TRACE(i);
    PlanRunner fresh(apps::PidginMachineSetup(), profiles, opts);
    ScenarioResult want = fresh.Run(*order[i]);
    ScenarioResult got = warm.Run(*order[i]);
    ExpectSameResult(got, want);
    EXPECT_EQ(got.snapshot_fallback, order[i] == &names_entry);
    EXPECT_EQ(got.seu_landed, order[i] == &flipped ? 1u : 0u);
    injections += got.injections;
  }
  EXPECT_GT(injections, order.size());
}

// A worker reuses one machine across all its scenarios; the kernel
// checkpoint must restore the filesystem between scenarios, or the
// appender would see its own previous output and exit with 16, 24, ...
TEST(Campaign, MachineResetIsolatesScenarios) {
  auto libc_so = std::make_shared<const sso::SharedObject>(libc::BuildLibc());
  auto app = std::make_shared<const sso::SharedObject>(BuildAppenderApp());
  MachineSetup setup = [libc_so, app](vm::Machine& machine) {
    machine.Load(*libc_so).value();
    machine.Load(*app).value();
  };
  std::vector<Scenario> scenarios(6);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "append" + std::to_string(i);
  }
  CampaignOptions opts;
  opts.jobs = 1;  // one worker = maximum reuse
  CampaignRunner runner(setup, {}, opts);
  CampaignReport report = runner.Run(scenarios);
  ASSERT_EQ(report.results.size(), 6u);
  for (const ScenarioResult& r : report.results) {
    EXPECT_EQ(r.status, ScenarioStatus::Exited) << r.fault_message;
    EXPECT_EQ(r.exit_code, 8) << "state leaked into scenario " << r.index;
  }
}

// A scenario whose entry does not resolve reports SetupError without
// poisoning the worker's later scenarios.
TEST(Campaign, SetupErrorIsIsolated) {
  std::vector<Scenario> scenarios = RandomScenarios(3, 0.0, 1);
  scenarios[1].entry = "no_such_symbol";
  CampaignReport report = RunReaderCampaign(scenarios, 1);
  EXPECT_EQ(report.results[0].status, ScenarioStatus::Exited);
  EXPECT_EQ(report.results[1].status, ScenarioStatus::SetupError);
  EXPECT_EQ(report.results[2].status, ScenarioStatus::Exited);
  EXPECT_EQ(report.setup_errors, 1u);
}

TEST(Campaign, ReportAggregation) {
  CampaignReport report;
  report.results.resize(4);
  report.results[0].status = ScenarioStatus::Exited;
  report.results[0].injections = 2;
  report.results[0].instructions = 100;
  report.results[0].seconds = 0.5;
  report.results[1].status = ScenarioStatus::Crashed;
  report.results[1].injections = 1;
  report.results[1].instructions = 50;
  report.results[2].status = ScenarioStatus::Deadlocked;
  report.results[3].status = ScenarioStatus::SetupError;
  report.Aggregate();
  EXPECT_EQ(report.scenarios, 4u);
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.deadlocks, 1u);
  EXPECT_EQ(report.setup_errors, 1u);
  EXPECT_EQ(report.total_injections, 3u);
  EXPECT_EQ(report.total_instructions, 150u);
  EXPECT_DOUBLE_EQ(report.cpu_seconds, 0.5);
}

TEST(Campaign, ParallelForCoversAllIndices) {
  constexpr size_t kWorkers = 8;
  std::vector<std::atomic<int>> hits(257);
  std::vector<size_t> slots(hits.size(), kWorkers);
  for (auto& h : hits) h.store(0);
  ParallelFor(hits.size(), kWorkers, [&](size_t slot, size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    slots[i] = slot;  // each index is written by exactly one call
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(slots[i], i % kWorkers) << "index " << i;
  }
  // Fewer indices than jobs: slots stay below the index count.
  std::vector<size_t> few(3, kWorkers);
  ParallelFor(few.size(), kWorkers,
              [&](size_t slot, size_t i) { few[i] = slot; });
  EXPECT_EQ(few, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace lfi::campaign
