#include "campaign/runner.hpp"

#include <chrono>
#include <thread>

#include "campaign/triage.hpp"

namespace lfi::campaign {

namespace {
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// True when the plan names the entry symbol itself. Installing such a
/// plan shadows the entry with a stub, so the cold path's CreateProcess
/// (which resolves the entry after Install) refuses to start; a snapshot
/// restore resolved the entry before any stub existed and would diverge.
/// Those scenarios always run cold.
bool PlanNamesEntry(const core::Plan& plan, const std::string& entry) {
  for (const core::FunctionTrigger& t : plan.triggers) {
    if (t.function == entry) return true;
  }
  return false;
}
}  // namespace

bool PrepareMachineSnapshot(vm::Machine& machine,
                            const CampaignOptions& options) {
  if (!options.snapshot) return false;
  machine.Reset();
  auto pid = machine.CreateProcess(options.entry, options.default_heap_cap);
  if (!pid.ok()) return false;
  if (options.warmup_instructions > 0) {
    machine.Run(options.warmup_instructions);
  }
  machine.Snapshot();  // the checkpoint's child, at the campaign-wide window
  return true;
}

PlanRunner::PlanRunner(
    MachineSetup setup,
    std::shared_ptr<const std::vector<core::FaultProfile>> profiles,
    CampaignOptions options)
    : options_(options), profiles_(std::move(profiles)) {
  if (options_.exec_mode) machine_.SetExecMode(*options_.exec_mode);
  if (setup) setup(machine_);
  machine_.Checkpoint();
  if (options_.track_coverage) {
    tracker_ = machine_.EnableCoverage();
    for (const auto& mod : machine_.loader().modules()) {
      module_names_.push_back(mod->object.name);
    }
  }
  controller_ =
      std::make_unique<core::Controller>(machine_, options_.controller);
  // Warm once, restore per scenario: the snapshot carries the machine at
  // the fault-window entry point, so scenarios skip reset + process
  // construction (and the warmup prefix) entirely, and the tree grows
  // window-local nodes as scenarios visit deeper windows.
  if (PrepareMachineSnapshot(machine_, options_)) {
    windows_[options_.warmup_instructions] = machine_.current_snapshot();
  }
}

ScenarioResult PlanRunner::Run(const Scenario& scenario) {
  ScenarioResult result;
  result.name = scenario.name;

  const std::string& entry =
      scenario.entry.empty() ? options_.entry : scenario.entry;
  uint64_t heap_cap = scenario.heap_cap_bytes != 0 ? scenario.heap_cap_bytes
                                                   : options_.default_heap_cap;
  const uint64_t warmup =
      scenario.warmup_instructions.value_or(options_.warmup_instructions);
  // The snapshot tree was taken for the campaign-wide entry/heap
  // configuration, rooted at the campaign-wide window; scenarios that
  // deviate from the configuration — or whose window opens before the root
  // (no window at-or-below theirs) — run cold.
  auto window = windows_.upper_bound(warmup);
  bool use_snapshot = options_.snapshot && window != windows_.begin() &&
                      entry == options_.entry &&
                      heap_cap == options_.default_heap_cap &&
                      !PlanNamesEntry(scenario.plan, entry);

  auto begin = Clock::now();
  bool setup_failed = false;
  auto setup_fail = [&](const std::string& error) {
    result.status = ScenarioStatus::SetupError;
    result.fault_message = error;
    setup_failed = true;
  };
  auto install = [&]() {
    if (auto st = controller_->Install(scenario.plan, profiles_); !st.ok()) {
      setup_fail(st.error());
    }
  };

  const vm::SnapshotRestoreStats stats_before = machine_.restore_stats();
  int primary_pid = 0;
  if (use_snapshot) {
    // Window-local restore: the greatest window at-or-below this
    // scenario's. A first visit to a deeper window runs the gap fault-free
    // once and captures a node for every scenario after. A snapshot
    // without a live entry process (possible through the raw Machine API,
    // never through PrepareMachineSnapshot) can't serve scenarios; run
    // cold. Restores are exact, so everything below reproduces the cold
    // prefix bit-for-bit (Run targets are absolute instruction counts
    // measured in whole scheduler rounds).
    --window;
    use_snapshot =
        machine_.RestoreTo(window->second) && !machine_.processes().empty();
    if (use_snapshot) {
      controller_->Reset();
      if (window->first < warmup) {
        machine_.Run(warmup);
        windows_[warmup] = machine_.PushSnapshot();
      }
    }
  }
  if (use_snapshot) {
    // The machine sits at the scenario's fault-window entry point (entry
    // process created, warmup prefix executed); only the plan changes.
    install();
    if (!setup_failed) primary_pid = machine_.processes().front()->pid();
  } else {
    machine_.Reset();
    controller_->Reset();
    if (warmup > 0) {
      // Windowed execution, cold: the fault-free prefix runs before the
      // plan installs — exactly what a snapshot restore reproduces.
      auto pid = machine_.CreateProcess(entry, heap_cap);
      if (!pid.ok()) {
        setup_fail(pid.error());
      } else {
        machine_.Run(warmup);
        install();
        primary_pid = pid.value();
      }
    } else {
      install();
      if (!setup_failed) {
        auto pid = machine_.CreateProcess(entry, heap_cap);
        if (!pid.ok()) setup_fail(pid.error());
        else primary_pid = pid.value();
      }
    }
  }
  result.snapshot_fallback = options_.snapshot && !use_snapshot;
  {
    const vm::SnapshotRestoreStats& stats_after = machine_.restore_stats();
    result.restore_pages =
        stats_after.pages_restored - stats_before.pages_restored;
    result.restore_nodes_walked =
        stats_after.nodes_walked - stats_before.nodes_walked;
  }
  if (setup_failed) return result;

  vm::RunOutcome outcome = machine_.Run(options_.max_instructions);
  result.seconds = Seconds(begin, Clock::now());
  result.instructions = machine_.total_instructions();
  result.injections = controller_->log().size();
  result.first_injection_instructions =
      controller_->first_injection_instructions();
  result.seu_landed = controller_->seu_landed();
  if (options_.collect_state_digest) {
    result.state_digest = machine_.StateDigest();
  }
  if (options_.collect_replays) result.replay = controller_->GenerateReplay();

  vm::Process* primary = machine_.process(primary_pid);
  result.exit_code = primary->exit_code();
  result.signal = primary->signal();
  result.fault_message = primary->fault_message();
  if (primary->state() == vm::ProcState::Faulted) {
    result.status = ScenarioStatus::Crashed;
    result.fault_frames = FaultFrames(*primary);
    result.crash_site_hash = CrashSiteHash(result.signal, result.fault_frames);
    result.crash_hash =
        CrashHash(result.signal, result.fault_frames, controller_->log());
  } else if (outcome == vm::RunOutcome::Deadlock) {
    result.status = ScenarioStatus::Deadlocked;
  } else if (outcome == vm::RunOutcome::BudgetSpent) {
    result.status = ScenarioStatus::BudgetSpent;
  } else {
    result.status = ScenarioStatus::Exited;
  }

  if (tracker_ != nullptr) {
    // One popcount per module: the total is the sum of the per-module
    // counts, over every tracker module, named or not.
    for (size_t m = 0; m < tracker_->module_count(); ++m) {
      size_t covered = tracker_->covered(m);
      result.covered_offsets += covered;
      if (covered == 0 || m >= module_names_.size()) continue;
      result.covered_by_module[module_names_[m]] = covered;
      if (options_.collect_scenario_coverage) {
        result.coverage[module_names_[m]] = tracker_->executed(m);
      }
    }
  }
  return result;
}

ScenarioResult PlanRunner::Run(const core::Plan& plan, const std::string& name,
                               std::optional<uint64_t> warmup) {
  Scenario scenario;
  scenario.name = name;
  scenario.plan = plan;
  scenario.warmup_instructions = warmup;
  return Run(scenario);
}

CampaignRunner::CampaignRunner(MachineSetup setup,
                               std::vector<core::FaultProfile> profiles,
                               CampaignOptions options)
    : setup_(std::move(setup)),
      profiles_(std::make_shared<const std::vector<core::FaultProfile>>(
          std::move(profiles))),
      options_(options) {
  if (options_.jobs <= 0) {
    options_.jobs =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
}

CampaignRunner::~CampaignRunner() = default;

PlanRunner& CampaignRunner::Worker(size_t w) {
  std::unique_ptr<PlanRunner>& slot = pool_[w];
  if (!slot) slot = std::make_unique<PlanRunner>(setup_, profiles_, options_);
  return *slot;
}

CampaignReport CampaignRunner::Run(const std::vector<Scenario>& scenarios) {
  CampaignReport report;
  report.snapshot_requested = options_.snapshot;
  if (scenarios.empty()) return report;  // skip worker/machine setup
  report.results.resize(scenarios.size());

  // ParallelFor runs scenario i on slot i % jobs, one thread per slot, so
  // each slot's PlanRunner and coverage tracker need no lock. Pre-size both
  // here; a slot's machine is built lazily on the thread that runs it.
  const size_t slots =
      std::min(static_cast<size_t>(options_.jobs), scenarios.size());
  if (pool_.size() < slots) pool_.resize(slots);
  std::vector<vm::CoverageTracker> slot_coverage(slots);

  auto begin = Clock::now();
  ParallelFor(scenarios.size(), options_.jobs, [&](size_t slot, size_t i) {
    PlanRunner& worker = Worker(slot);
    ScenarioResult& result = report.results[i];
    result = worker.Run(scenarios[i]);
    result.index = i;
    // Union this scenario's bitmaps into the slot-local aggregate — a
    // bitwise OR per module, no per-offset work.
    if (worker.tracker()) slot_coverage[slot].Merge(*worker.tracker());
  });
  report.wall_seconds = Seconds(begin, Clock::now());

  // Union the slot bitmaps (bitwise OR is order-independent, so the
  // merged result is deterministic across jobs counts), then key the
  // report by module name. Every worker loads the same image, so any
  // worker's module list names the merged indices.
  if (options_.track_coverage) {
    vm::CoverageTracker merged;
    for (const vm::CoverageTracker& per_slot : slot_coverage) {
      merged.Merge(per_slot);
    }
    const std::vector<std::string>* names = nullptr;
    for (const auto& worker : pool_) {
      if (worker && !worker->module_names().empty()) {
        names = &worker->module_names();
        break;
      }
    }
    if (names != nullptr) {
      for (size_t i = 0; i < names->size() && i < merged.module_count(); ++i) {
        report.coverage[(*names)[i]].Merge(merged.executed(i));
      }
    }
  }
  report.Aggregate();
  return report;
}

}  // namespace lfi::campaign
