// Experiment drivers: assemble machine + libraries + controller + app for
// each of the paper's evaluation scenarios, and measure what the paper
// measures (completion time, txns/sec, coverage, crash discovery).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "vm/coverage.hpp"
#include "vm/machine.hpp"

namespace lfi::apps {

// ---- Table 3: Apache/AB ------------------------------------------------------

struct WebBenchResult {
  double seconds = 0;          // wall-clock completion time of the run
  uint64_t instructions = 0;   // VM instructions executed
  uint64_t triggers_installed = 0;
};

/// Run the AB workload: `requests` requests, static or PHP handler, with
/// `trigger_count` pass-through triggers (0 = baseline without LFI).
WebBenchResult RunWebBench(int requests, bool php_mode, int trigger_count,
                           uint64_t seed);

// ---- Table 4: MySQL/SysBench OLTP --------------------------------------------

struct OltpBenchResult {
  double seconds = 0;
  double txns_per_sec = 0;
  uint64_t instructions = 0;
};

OltpBenchResult RunOltpBench(int transactions, bool read_write,
                             int trigger_count, uint64_t seed);

// ---- §6.1: MySQL test-suite coverage -----------------------------------------

struct CoverageReport {
  /// module name -> (covered blocks, total blocks)
  std::map<std::string, std::pair<size_t, size_t>> modules;
  size_t crashes = 0;  // runs that ended in a fault (the paper saw 12)
  double overall() const;
};

/// Run the regression suite `runs` times (aggregating coverage). When
/// `with_lfi` is set, each run injects a random libc faultload. The runs
/// execute as a fault-injection campaign fanned out over `jobs` workers;
/// results are identical for any jobs count.
CoverageReport RunDbTestSuite(bool with_lfi, int runs, double probability,
                              uint64_t seed, int jobs = 1);

// ---- §6.1: Pidgin ------------------------------------------------------------

struct PidginRunResult {
  bool aborted = false;        // SIGABRT observed (the bug fired)
  bool deadlocked = false;     // ScenarioStatus::Deadlocked (a crash wins)
  int64_t exit_code = 0;
  std::string fault_message;
  size_t injections = 0;
  core::Plan replay;           // replay script for this run
};

/// Run Pidgin under a scenario on a campaign::PlanRunner; reports the
/// outcome and the replay script.
PidginRunResult RunPidginWithPlan(const core::Plan& plan);

/// Run Pidgin under the paper's scenario (random I/O faults, p=0.1) with
/// the given seed.
PidginRunResult RunPidginRandomIo(double probability, uint64_t seed);

// ---- shared helpers -----------------------------------------------------------

/// Basic-block coverage of one module: project the executed-offset bitmap
/// onto the CFG's block starts (covered blocks, total blocks).
std::pair<size_t, size_t> BlockCoverage(const sso::SharedObject& so,
                                        const vm::CoverageBitmap& executed);

/// Profile libc (and optionally more libraries) for use in plans.
std::vector<core::FaultProfile> ProfileStandardLibs(
    const std::vector<sso::SharedObject>& libs);

/// Fault profiles of the synthetic libc, profiled once per process and
/// cached — profiling is static analysis of an immutable binary, so every
/// caller (and every campaign worker) can share one copy.
const std::vector<core::FaultProfile>& LibcProfiles();

/// Machine-setup callables for campaign workers. Each captures the
/// pre-built shared objects by value, so workers only pay for loading a
/// copy, not for rebuilding the target image.
std::function<void(vm::Machine&)> PidginMachineSetup();
std::function<void(vm::Machine&)> DbSuiteMachineSetup();

}  // namespace lfi::apps
