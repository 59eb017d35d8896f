// Allocation pin for the warm scenario loop: a warm PlanRunner re-arms its
// stubs, restores kernel tables into their own storage and reuses a pooled
// process for every spawn, so a scenario allocates little beyond its
// result. This binary replaces the global operator new to count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacements pair malloc with free; GCC cannot see that the new and
// delete below are each other's pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace lfi::campaign {
namespace {

struct WarmCount {
  double per_scenario = 0;
  double result_nodes = 0;  // covered_by_module entries per scenario
};

/// Run a Pidgin plan set twice on one PlanRunner at the entry window and
/// count the second pass's allocations.
WarmCount CountWarmAllocations(double probability) {
  CampaignOptions opts;
  opts.entry = apps::kPidginEntry;
  opts.snapshot = true;
  opts.track_coverage = true;
  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  std::vector<Scenario> scenarios(200);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "s" + std::to_string(i);
    scenarios[i].plan =
        core::GenerateRandom(*profiles, probability, DeriveSeed(1, i));
  }
  PlanRunner runner(apps::PidginMachineSetup(), profiles, opts);
  for (const Scenario& s : scenarios) (void)runner.Run(s);
  size_t nodes = 0;
  const uint64_t before = g_allocations;
  for (const Scenario& s : scenarios) nodes += runner.Run(s).covered_by_module.size();
  const double n = static_cast<double>(scenarios.size());
  return {static_cast<double>(g_allocations - before) / n,
          static_cast<double>(nodes) / n};
}

TEST(WarmScenario, FaultFreePlansAllocateOnlyTheResult) {
  const WarmCount c = CountWarmAllocations(0.0);
  EXPECT_GT(c.result_nodes, 0);
  EXPECT_EQ(c.per_scenario, c.result_nodes);
}

TEST(WarmScenario, RandomPlansAllocateAtMostEightPerScenario) {
  EXPECT_LE(CountWarmAllocations(0.1).per_scenario, 8.0);
}

// A cold Reset is a restore to the checkpoint: once the machine is warm it
// restores kernel tables, module pages and coverage into their own storage
// and pools the processes. The checkpoint precedes EnableCoverage, as in
// PlanRunner, so the root holds no bitmaps to copy.
TEST(WarmScenario, ColdResetAllocatesNothing) {
  vm::Machine machine;
  apps::PidginMachineSetup()(machine);
  machine.Checkpoint();
  machine.EnableCoverage();
  for (int i = 0; i < 3; ++i) {
    machine.Reset();
    ASSERT_TRUE(machine.CreateProcess(apps::kPidginEntry).ok());
    machine.Run(100'000);
  }
  const uint64_t before = g_allocations;
  machine.Reset();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_TRUE(machine.processes().empty());
}

}  // namespace
}  // namespace lfi::campaign
