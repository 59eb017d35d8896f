// CampaignRunner: fan a scenario set out across a pool of worker threads.
//
// Each worker slot owns one PlanRunner (a vm::Machine + core::Controller
// pair) for the runner's whole lifetime. The machine is built once
// (MachineSetup loads modules and seeds the in-memory filesystem, then the
// runner checkpoints it) and then *reset* between scenarios instead of
// rebuilt — module construction and loading dominate per-run cost in the
// serial drivers, so this is where the throughput comes from. Reset also
// preserves the loader's decoded code cache (vm::CodeCache), so each
// worker decodes the target image once. Scenario state is fully isolated
// by Machine::Reset + Controller::Reset (or an exact snapshot restore)
// before every scenario, and each scenario's trigger RNG is seeded from
// its own plan, so a warm PlanRunner gives the same result as a fresh one
// and results are bit-identical across any jobs count.
// The explorer's minimization oracles rely on the same contract: one
// PlanRunner per minimization slot serves crash after crash.
//
// Placement is ParallelFor's: scenario i runs on worker slot i % jobs.
// Result collection is lock-free: the results vector is pre-sized and each
// scenario writes only its own index. Coverage aggregation is lock-free the
// same way: each slot ORs its scenarios' bitmaps into its own pre-sized
// CoverageTracker, and the slots are union-merged once after the join
// (bitwise OR is order-independent, so the aggregate is identical for any
// jobs count).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/profile.hpp"
#include "vm/machine.hpp"

namespace lfi::campaign {

/// Prepares a freshly-constructed machine for the target under test: load
/// libc + the application modules, add VFS files, mark listening ports.
/// Called once per worker; must be safe to call concurrently (build the
/// shared objects up front and capture them by value).
using MachineSetup = std::function<void(vm::Machine&)>;

/// Warm `machine` to the campaign's fault-window entry point and take the
/// per-worker snapshot PlanRunner::Run restores from: reset, create the
/// campaign entry process, run `options.warmup_instructions` of fault-free
/// prefix, snapshot. No-op (returns false, machine untouched beyond a
/// Reset) when options.snapshot is off or the entry does not resolve — the
/// scenarios then run cold and report the same SetupError either way.
/// Call after machine setup + Checkpoint (and EnableCoverage, so the
/// snapshot carries the prefix's coverage).
bool PrepareMachineSnapshot(vm::Machine& machine,
                            const CampaignOptions& options);

/// One warm machine: builds the target once (setup, checkpoint, coverage,
/// snapshot warm), then Run() executes one scenario per call: reset or
/// restore the machine and controller, install the plan, run, classify,
/// and collect the scenario's coverage. Crashed scenarios get their fault
/// frames and triage hashes filled; the result's `index` is left 0 for the
/// caller to place. Campaign worker slots, the explorer's minimization
/// oracles and `lfi test` are all PlanRunners, so a one-off plan run and a
/// campaign slot are the same computation, and any sequence of Runs on one
/// PlanRunner gives the same per-scenario results as fresh machines would.
class PlanRunner {
 public:
  PlanRunner(MachineSetup setup,
             std::shared_ptr<const std::vector<core::FaultProfile>> profiles,
             CampaignOptions options = {});

  /// Run one scenario. Deterministic: the result depends only on the
  /// scenario and the options.
  ScenarioResult Run(const Scenario& scenario);

  /// Run one plan at the campaign entry. `warmup` overrides the fault
  /// window — needed to reproduce fork-windows findings.
  ScenarioResult Run(const core::Plan& plan, const std::string& name = "plan",
                     std::optional<uint64_t> warmup = std::nullopt);

  /// The last Run's coverage (null unless options.track_coverage), indexed
  /// by dense module index; module_names() names the indices.
  const vm::CoverageTracker* tracker() const { return tracker_; }
  /// The last Run's injection log.
  const core::InjectionLog& log() const { return controller_->log(); }
  const std::vector<std::string>& module_names() const { return module_names_; }

 private:
  CampaignOptions options_;
  std::shared_ptr<const std::vector<core::FaultProfile>> profiles_;
  vm::Machine machine_;
  vm::CoverageTracker* tracker_ = nullptr;
  std::vector<std::string> module_names_;
  std::unique_ptr<core::Controller> controller_;
  /// Snapshot tree bookkeeping (options.snapshot): the node at each fault
  /// window, keyed by absolute warmup instruction count. The campaign-wide
  /// warmup is the root window; deeper windows are pushed by the first Run
  /// that needs them. Restore-exactness keeps results independent of which
  /// windows this runner happened to build, so reports stay jobs-invariant.
  std::map<uint64_t, vm::SnapshotId> windows_;
};

/// Anything that can execute a scenario set and produce a CampaignReport.
/// CampaignRunner is the in-process implementation; the serve fabric's
/// coordinator (serve/coordinator.hpp) is the cross-process one. Both
/// honor the same contract: results are index-ordered, per-scenario
/// outcomes depend only on the scenario, and the report (union coverage,
/// crash hashes, counters) is bit-identical no matter how the work was
/// spread — which is what lets the explorer fan rounds out through either
/// without changing its own determinism story.
class ScenarioDispatch {
 public:
  virtual ~ScenarioDispatch() = default;

  /// Execute every scenario; blocks until the campaign completes.
  virtual CampaignReport Run(const std::vector<Scenario>& scenarios) = 0;
};

class CampaignRunner : public ScenarioDispatch {
 public:
  CampaignRunner(MachineSetup setup,
                 std::vector<core::FaultProfile> profiles,
                 CampaignOptions options = {});
  ~CampaignRunner() override;

  /// Execute every scenario; blocks until the campaign completes. The
  /// worker machine pool persists across calls: a second Run (an explorer
  /// round, a serve batch) reuses the loaded modules, decoded code caches,
  /// and warm snapshots instead of rebuilding them.
  CampaignReport Run(const std::vector<Scenario>& scenarios) override;

  const CampaignOptions& options() const { return options_; }

 private:
  /// Build pool_[w] on the first scenario to land on slot w. Called from
  /// worker threads, so each machine is built on the thread that runs it;
  /// safe because each thread touches only its own slot (pool_ is
  /// pre-sized on the coordinating thread).
  PlanRunner& Worker(size_t w);

  MachineSetup setup_;
  /// Shared across all workers and installs — profiles are immutable for
  /// the campaign's lifetime, so no per-scenario copy is made.
  std::shared_ptr<const std::vector<core::FaultProfile>> profiles_;
  CampaignOptions options_;
  /// Persistent worker pool, indexed by slot; grows to options_.jobs.
  /// A slot's PlanRunner lives as long as the runner, so every later Run
  /// (explorer round, serve batch) reuses its machine and snapshot nodes.
  std::vector<std::unique_ptr<PlanRunner>> pool_;
};

}  // namespace lfi::campaign
