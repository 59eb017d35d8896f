// Snapshot/restore scenario execution beyond the determinism matrix
// (test_matrix, which holds whole campaigns and explorations identical
// across cold and snapshot execution): one-off PlanRunner runs after
// Machine::Reset wiped the snapshot's processes, recycled segment buffers
// against fresh runners, and the scenarios that must fall back to cold
// execution and be counted.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "test_helpers.hpp"

namespace lfi::campaign {
namespace {

using test::ExpectSameCampaign;
using test::ExpectSameScenario;
using test::RandomScenarios;

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

// PlanRunner::Run is the campaign slots' per-scenario path and also the
// explorer's minimization oracle, so one-off plan runs must also be
// identical under snapshot execution —
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
  auto scenarios = RandomScenarios(6, 0.1, 61);
  // Window 1 opens one instruction past the root's window 0: its prefix
  // ends a scheduler round later, so it must not reuse the root's node.
  for (uint64_t window : {0, 1}) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      SCOPED_TRACE("plan " + std::to_string(i) + " at window " +
                   std::to_string(window));
      const core::Plan& plan = scenarios[i].plan;
      ScenarioResult a = cold_runner.Run(plan, scenarios[i].name, window);
      ScenarioResult b = snap_runner.Run(plan, scenarios[i].name, window);
      ExpectSameScenario(a, b, /*both_snapshot=*/false);
    }
  }
}

// Scenarios recycle the stack/heap/TLS buffers of the processes they spawn
// and destroy, and the segment pool zeroes only the pages each process
// wrote: a page it missed would leak into a later scenario's spawn. The
// oracle runs every scenario alone on a fresh runner (no recycling
// history); the final state digest hashes every byte of every process
// segment, so cold and snapshot campaigns at jobs 1 and 4 must match it.
TEST(SnapshotDiff, PidginSegmentRecyclingMatchesFreshRunners) {
  auto setup = apps::PidginMachineSetup();
  auto scenarios = RandomScenarios(16, 0.1, 31);
  CampaignOptions cold = BaseOptions(apps::kPidginEntry);
  cold.collect_state_digest = true;
  CampaignReport fresh;
  for (const Scenario& scenario : scenarios) {
    CampaignReport one = RunCampaign(setup, {scenario}, cold);
    fresh.results.push_back(one.results.at(0));
    fresh.results.back().index = fresh.results.size() - 1;
  }
  auto expect_fresh = [&](const CampaignReport& report) {
    ASSERT_EQ(report.results.size(), fresh.results.size());
    for (size_t i = 0; i < report.results.size(); ++i) {
      SCOPED_TRACE("scenario " + std::to_string(i));
      ExpectSameScenario(fresh.results[i], report.results[i],
                         /*both_snapshot=*/false);
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

// Scenario-level entry/heap overrides, plans that name the entry symbol
// itself, and windows shallower than the tree's root cannot use the worker
// snapshot; they must fall back to cold execution — identically, and
// counted in the report.
TEST(SnapshotDiff, IncompatibleScenariosFallBackColdAndAreCounted) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = RandomScenarios(5, 0.05, 101);
  for (Scenario& scenario : scenarios) scenario.warmup_instructions = 6000;
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
  ExpectSameCampaign(cold_report, snap_report);
  EXPECT_EQ(snap_report.snapshot_fallbacks, 3u);
  // The fallback count is part of the jobs-invariant text summary...
  EXPECT_NE(snap_report.ToText().find("snapshot fallbacks (ran cold): 3 of 5"),
            std::string::npos)
      << snap_report.ToText();
  // ...but only when snapshot execution was requested at all.
  EXPECT_EQ(cold_report.ToText().find("snapshot fallbacks"), std::string::npos);
}

}  // namespace
}  // namespace lfi::campaign
