// Differential tests for snapshot/restore scenario execution: a campaign
// run with CampaignOptions::snapshot (per-worker warm-once / restore-per-
// scenario) must produce a bit-identical report to the cold path that
// resets and rebuilds the machine per scenario — statuses, exit codes,
// fault messages, instruction counts, injection logs, per-scenario and
// union coverage bitmaps, crash hashes, and replay XML — on the db-suite
// and Pidgin targets, for any jobs count, with and without a fault-free
// warmup prefix, with per-scenario fault windows restored from window-local
// snapshot tree nodes, on both execution engines, and after Machine::Reset
// wiped the snapshot's processes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"
#include "vm/machine.hpp"

namespace lfi::campaign {
namespace {

void ExpectResultsIdentical(const ScenarioResult& a, const ScenarioResult& b) {
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
}

void ExpectReportsIdentical(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    ExpectResultsIdentical(a.results[i], b.results[i]);
  }
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.setup_errors, b.setup_errors);
  EXPECT_EQ(a.total_injections, b.total_injections);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.coverage, b.coverage);  // union bitmaps, module by module
}

std::vector<Scenario> MakeScenarios(size_t count, double probability,
                                    uint64_t seed) {
  const auto& profiles = apps::LibcProfiles();
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    Scenario s;
    s.name = "scn-" + std::to_string(i);
    s.plan = core::GenerateRandom(profiles, probability, DeriveSeed(seed, i));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

CampaignOptions BaseOptions(const std::string& entry) {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.entry = entry;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  return opts;
}

CampaignReport RunCampaign(const MachineSetup& setup,
                           const std::vector<Scenario>& scenarios,
                           CampaignOptions opts) {
  CampaignRunner runner(setup, apps::LibcProfiles(), opts);
  return runner.Run(scenarios);
}

TEST(SnapshotDiff, DbSuiteIdenticalToColdPath) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(10, 0.05, 11);
  CampaignOptions cold = BaseOptions(apps::kDbTestEntry);
  CampaignOptions snap = cold;
  snap.snapshot = true;
  ExpectReportsIdentical(RunCampaign(setup, scenarios, cold),
                         RunCampaign(setup, scenarios, snap));
}

TEST(SnapshotDiff, PidginIdenticalToColdPath) {
  auto setup = apps::PidginMachineSetup();
  auto scenarios = MakeScenarios(10, 0.1, 23);
  CampaignOptions cold = BaseOptions(apps::kPidginEntry);
  CampaignOptions snap = cold;
  snap.snapshot = true;
  ExpectReportsIdentical(RunCampaign(setup, scenarios, cold),
                         RunCampaign(setup, scenarios, snap));
}

// A fault-free warmup prefix moves the fault window; cold execution with
// the same warmup must match the snapshot run bit for bit (the prefix is
// re-executed cold, skipped via restore under snapshot).
TEST(SnapshotDiff, WarmupPrefixIdenticalColdVsSnapshot) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(8, 0.1, 47);
  CampaignOptions cold = BaseOptions(apps::kDbTestEntry);
  cold.warmup_instructions = 4000;
  CampaignOptions snap = cold;
  snap.snapshot = true;
  CampaignReport cold_report = RunCampaign(setup, scenarios, cold);
  CampaignReport snap_report = RunCampaign(setup, scenarios, snap);
  ExpectReportsIdentical(cold_report, snap_report);
  // The window really moved: every scenario executed at least the prefix.
  for (const ScenarioResult& r : snap_report.results) {
    EXPECT_GE(r.instructions, 4000u);
  }
}

// PlanRunner (the explorer's minimization oracle) shares RunScenarioOn, so
// one-off plan runs must also be identical under snapshot execution —
// including right after Machine::Reset invalidated the live processes
// (PlanRunner's machine is reused across Run calls).
TEST(SnapshotDiff, PlanRunnerIdenticalAndSurvivesReset) {
  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  CampaignOptions cold = BaseOptions(apps::kPidginEntry);
  CampaignOptions snap = cold;
  snap.snapshot = true;
  PlanRunner cold_runner(apps::PidginMachineSetup(), profiles, cold);
  PlanRunner snap_runner(apps::PidginMachineSetup(), profiles, snap);
  auto scenarios = MakeScenarios(6, 0.1, 61);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    ScenarioResult a = cold_runner.Run(scenarios[i].plan, scenarios[i].name);
    ScenarioResult b = snap_runner.Run(scenarios[i].plan, scenarios[i].name);
    ExpectResultsIdentical(a, b);
  }
}

// ---- per-scenario fault windows ------------------------------------------

/// Spread per-scenario fault windows round-robin over `windows` (deeper
/// than, or equal to, the campaign-wide warmup).
void AssignWindows(std::vector<Scenario>* scenarios,
                   const std::vector<uint64_t>& windows) {
  for (size_t i = 0; i < scenarios->size(); ++i) {
    (*scenarios)[i].warmup_instructions = windows[i % windows.size()];
  }
}

// Snapshot execution with per-scenario fault windows (window-local tree
// nodes) must be bit-identical to cold execution, with every scenario
// riding a snapshot.
TEST(SnapshotDiff, IdenticalToColdAcrossWindows) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(9, 0.05, 83);
  AssignWindows(&scenarios, {4000, 9000, 14000});
  CampaignOptions cold = BaseOptions(apps::kDbTestEntry);
  cold.warmup_instructions = 4000;
  CampaignOptions snap = cold;
  snap.snapshot = true;
  CampaignReport cold_report = RunCampaign(setup, scenarios, cold);
  CampaignReport snap_report = RunCampaign(setup, scenarios, snap);
  ExpectReportsIdentical(cold_report, snap_report);
  // Every scenario rode a snapshot — no silent cold fallbacks.
  EXPECT_EQ(snap_report.snapshot_fallbacks, 0u);
  EXPECT_TRUE(snap_report.snapshot_requested);
  EXPECT_FALSE(cold_report.snapshot_requested);
}

// Scenarios recycle the stack/heap/TLS buffers of the processes they spawn
// and destroy, and the segment pool zeroes only the pages each process
// wrote: a page it missed would leak into a later scenario's spawn. The
// oracle runs every scenario alone on a fresh runner (no recycling
// history); the final state digest hashes every byte of every process
// segment, so cold and snapshot campaigns at jobs 1 and 4 must match it.
TEST(SnapshotDiff, PidginSegmentRecyclingMatchesFreshRunners) {
  auto setup = apps::PidginMachineSetup();
  auto scenarios = MakeScenarios(16, 0.1, 31);
  CampaignOptions cold = BaseOptions(apps::kPidginEntry);
  cold.collect_state_digest = true;
  CampaignReport fresh;
  for (const Scenario& scenario : scenarios) {
    CampaignReport one = RunCampaign(setup, {scenario}, cold);
    fresh.results.push_back(one.results.at(0));
  }
  auto expect_fresh = [&](const CampaignReport& report) {
    ASSERT_EQ(report.results.size(), fresh.results.size());
    for (size_t i = 0; i < report.results.size(); ++i) {
      SCOPED_TRACE("scenario " + std::to_string(i));
      ExpectResultsIdentical(fresh.results[i], report.results[i]);
      EXPECT_EQ(fresh.results[i].state_digest, report.results[i].state_digest);
    }
  };
  expect_fresh(RunCampaign(setup, scenarios, cold));
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("snapshot, jobs " + std::to_string(jobs));
    CampaignOptions snap = cold;
    snap.snapshot = true;
    snap.jobs = jobs;
    expect_fresh(RunCampaign(setup, scenarios, snap));
  }
}

// Snapshot report identity must hold for any jobs count: each worker grows
// its own window nodes, but results depend only on the scenario.
TEST(SnapshotDiff, JobsInvariantUnderSnapshot) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(12, 0.05, 89);
  AssignWindows(&scenarios, {4000, 10000});
  CampaignOptions opts = BaseOptions(apps::kDbTestEntry);
  opts.warmup_instructions = 4000;
  opts.snapshot = true;
  CampaignReport one = RunCampaign(setup, scenarios, opts);
  opts.jobs = 4;
  CampaignReport four = RunCampaign(setup, scenarios, opts);
  ExpectReportsIdentical(one, four);
  EXPECT_EQ(one.snapshot_fallbacks, four.snapshot_fallbacks);
}

// The superblock engine hoists instruction-count and coverage accounting
// to one update per fused span, so snapshot nodes captured at windows that
// are almost never on a superblock boundary are the adversarial case: the
// exact per-instruction counter and coverage bitmaps must be
// re-materialized at each capture point. Both engines must produce the
// same report, cold or restored — four runs, one truth.
TEST(SnapshotDiff, MidRunNodesIdenticalAcrossExecEngines) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(6, 0.1, 97);
  AssignWindows(&scenarios, {4321, 8765, 13131});
  CampaignReport baseline;
  bool have_baseline = false;
  for (vm::ExecMode mode :
       {vm::ExecMode::Superblock, vm::ExecMode::Reference}) {
    SCOPED_TRACE(vm::ExecModeName(mode));
    CampaignOptions cold = BaseOptions(apps::kDbTestEntry);
    cold.exec_mode = mode;
    cold.warmup_instructions = 4321;  // deliberately not quantum-aligned
    CampaignOptions snap = cold;
    snap.snapshot = true;
    CampaignReport cold_report = RunCampaign(setup, scenarios, cold);
    CampaignReport snap_report = RunCampaign(setup, scenarios, snap);
    ExpectReportsIdentical(cold_report, snap_report);
    if (have_baseline) {
      ExpectReportsIdentical(snap_report, baseline);
    } else {
      baseline = std::move(snap_report);
      have_baseline = true;
    }
  }
}

// Scenario-level entry/heap overrides, plans that name the entry symbol
// itself, and windows shallower than the tree's root cannot use the worker
// snapshot; they must fall back to cold execution — identically, and
// counted in the report.
TEST(SnapshotDiff, IncompatibleScenariosFallBackColdAndAreCounted) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(5, 0.05, 101);
  AssignWindows(&scenarios, {6000});
  scenarios[1].heap_cap_bytes = 1 << 18;    // snapshot-incompatible
  core::FunctionTrigger on_entry;
  on_entry.function = apps::kDbTestEntry;  // interposes the entry symbol
  on_entry.mode = core::FunctionTrigger::Mode::CallCount;
  on_entry.inject_call = 1;
  on_entry.retval = -1;
  scenarios[2].plan.triggers.push_back(on_entry);
  scenarios[3].warmup_instructions = 1000;  // before the shared window
  CampaignOptions cold = BaseOptions(apps::kDbTestEntry);
  cold.warmup_instructions = 4000;
  CampaignOptions snap = cold;
  snap.snapshot = true;
  CampaignReport cold_report = RunCampaign(setup, scenarios, cold);
  CampaignReport snap_report = RunCampaign(setup, scenarios, snap);
  ExpectReportsIdentical(cold_report, snap_report);
  EXPECT_EQ(snap_report.snapshot_fallbacks, 3u);
  // The fallback count is part of the jobs-invariant text summary...
  EXPECT_NE(snap_report.ToText().find("snapshot fallbacks (ran cold): 3 of 5"),
            std::string::npos)
      << snap_report.ToText();
  // ...but only when snapshot execution was requested at all.
  EXPECT_EQ(cold_report.ToText().find("snapshot fallbacks"), std::string::npos);
}

// Explorer end-to-end: coverage-guided rounds + triage + minimization are
// bit-identical whether scenarios execute cold or via snapshot restore.
// Fork-windows exploration (mutants open their fault window at the
// parent's trigger point) is a search-semantics change, not an
// execution-mode one, so the identity holds with it on too — and crash
// minimization must still reproduce, the window travelling with the plan.
TEST(SnapshotDiff, ExplorerIdenticalUnderSnapshot) {
  for (bool fork_windows : {false, true}) {
    SCOPED_TRACE(fork_windows ? "fork windows" : "campaign window");
    ExplorerOptions eopts;
    eopts.rounds = 2;
    eopts.scenarios_per_round = 6;
    eopts.seed = 5;
    eopts.fork_windows = fork_windows;
    eopts.campaign = BaseOptions(apps::kPidginEntry);
    Explorer cold(apps::PidginMachineSetup(), apps::LibcProfiles(), eopts);
    ExplorerReport cold_report = cold.Explore();
    eopts.campaign.snapshot = true;
    Explorer snap(apps::PidginMachineSetup(), apps::LibcProfiles(), eopts);
    ExplorerReport snap_report = snap.Explore();

    EXPECT_EQ(cold_report.coverage, snap_report.coverage);
    EXPECT_EQ(cold_report.union_offsets(), snap_report.union_offsets());
    ASSERT_EQ(cold_report.corpus.size(), snap_report.corpus.size());
    for (size_t i = 0; i < cold_report.corpus.size(); ++i) {
      EXPECT_EQ(cold_report.corpus[i].ToXml(), snap_report.corpus[i].ToXml());
    }
    ASSERT_EQ(cold_report.crashes.size(), snap_report.crashes.size());
    for (size_t i = 0; i < cold_report.crashes.size(); ++i) {
      const CrashReport& a = cold_report.crashes[i];
      const CrashReport& b = snap_report.crashes[i];
      EXPECT_EQ(a.hash, b.hash);
      EXPECT_EQ(a.window, b.window);
      EXPECT_EQ(a.minimized.ToXml(), b.minimized.ToXml());
      EXPECT_EQ(a.reproduces, b.reproduces);
    }
    if (fork_windows) {
      for (const CrashReport& cr : cold_report.crashes) {
        EXPECT_TRUE(cr.reproduces) << cr.signature;
      }
    }
  }
}

}  // namespace
}  // namespace lfi::campaign
