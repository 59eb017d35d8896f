// Fault-injection campaigns: the unit of scale.
//
// The paper runs one fault scenario per LFI invocation; a campaign is the
// production version of that loop — a set of scenarios (typically from
// scenario_gen, one per seed / per error code) executed against one target
// image, fanned out across worker threads. Results are per-scenario and
// deterministic: a scenario's outcome depends only on its plan (whose seed
// drives the trigger RNG), never on which worker ran it or in what order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/scenario.hpp"
#include "vm/coverage.hpp"
#include "vm/process.hpp"

namespace lfi::campaign {

/// One schedulable unit: a named fault plan plus optional per-scenario
/// overrides of the campaign-wide entry symbol and heap cap.
struct Scenario {
  std::string name;
  core::Plan plan;
  std::string entry;            // empty = CampaignOptions::entry
  uint64_t heap_cap_bytes = 0;  // 0 = CampaignOptions::default_heap_cap
  /// Per-scenario fault-window override (instructions of fault-free prefix
  /// before the plan installs); unset = CampaignOptions::warmup_instructions.
  /// Honored identically by cold and snapshot (restore a window-local
  /// tree node) execution. Values below the campaign-wide warmup run cold:
  /// the tree's root was taken past that point.
  std::optional<uint64_t> warmup_instructions;
};

enum class ScenarioStatus {
  Exited,      // primary process exited
  Crashed,     // primary process faulted (a finding!)
  Deadlocked,  // all processes blocked with no progress possible
  BudgetSpent, // instruction budget exhausted (a hang, operationally)
  SetupError,  // entry symbol did not resolve / install failed
};

const char* ScenarioStatusName(ScenarioStatus status);

struct ScenarioResult {
  size_t index = 0;    // position in the input scenario set
  std::string name;
  ScenarioStatus status = ScenarioStatus::SetupError;
  int64_t exit_code = 0;
  vm::Signal signal = vm::Signal::None;
  std::string fault_message;
  size_t injections = 0;        // records in the injection log
  uint64_t instructions = 0;    // VM instructions this scenario executed
  double seconds = 0;           // wall-clock for this scenario
  /// Instruction offsets executed during this scenario (all modules),
  /// popcounted from a per-scenario-cleared bitmap tracker, so the number
  /// is identical no matter which worker ran it. 0 when coverage is off.
  size_t covered_offsets = 0;
  /// Per-module breakdown of `covered_offsets` (module name -> executed
  /// offsets in that module). Values sum to `covered_offsets`; modules the
  /// scenario never touched are omitted. Empty when coverage is off.
  std::map<std::string, size_t> covered_by_module;
  /// This scenario's executed-offset bitmaps, per module name — what the
  /// explorer diffs against the corpus-union bitmap to score new coverage.
  /// Populated only when CampaignOptions::collect_scenario_coverage is set
  /// (costs one bitmap copy per touched module per scenario).
  std::map<std::string, vm::CoverageBitmap> coverage;
  /// Crash identity (status == Crashed): symbolized faulting frames,
  /// innermost first, and the triage hashes (campaign/triage.hpp).
  /// crash_site_hash covers signal + frames (the minimizer's target);
  /// crash_hash additionally mixes the injected-fault summary (the
  /// dedup bucket). Both 0 for non-crashed scenarios.
  std::vector<std::string> fault_frames;
  uint64_t crash_site_hash = 0;
  uint64_t crash_hash = 0;
  /// Replay plan (paper §5.2); populated when collect_replays is set.
  core::Plan replay;
  /// Machine-wide instruction count at the scenario's first injection, 0
  /// when nothing injected. Deterministic across jobs, engines, and
  /// execution modes (cold/snapshot/tree) — the explorer derives fork
  /// windows from it.
  uint64_t first_injection_instructions = 0;
  /// Snapshot execution was requested but this scenario ran cold
  /// (entry/heap override, entry-interposing plan, window before the
  /// shared snapshot, or no usable snapshot). Deterministic per scenario,
  /// so jobs-invariant.
  bool snapshot_fallback = false;
  /// Restore cost this scenario paid (snapshot modes only): 4 KiB pages
  /// copied and tree nodes walked. NOT jobs-invariant — the cost depends
  /// on what the same worker ran previously — so these feed bench
  /// telemetry only and stay out of reports and identity checks.
  uint64_t restore_pages = 0;
  uint64_t restore_nodes_walked = 0;
  /// vm::Machine::StateDigest() at scenario end; populated when
  /// CampaignOptions::collect_state_digest is set, 0 otherwise.
  /// Deterministic across jobs, engines, and snapshot modes — SEU
  /// campaigns compare it against a golden run to spot silent data
  /// corruption.
  uint64_t state_digest = 0;
  /// How many of the plan's <seu> flips actually landed.
  uint32_t seu_landed = 0;
};

/// Aggregated campaign outcome. `results` is index-ordered regardless of
/// worker interleaving.
struct CampaignReport {
  std::vector<ScenarioResult> results;
  size_t scenarios = 0;
  size_t crashes = 0;
  size_t deadlocks = 0;
  size_t budget_spent = 0;
  size_t setup_errors = 0;
  /// Scenarios that fell back to cold execution under --snapshot
  /// (always 0 otherwise). Printed in the summary when snapshot execution
  /// was requested: a misconfigured fast-path run should not look fast.
  size_t snapshot_fallbacks = 0;
  /// Whether the campaign ran with snapshot execution requested (set by
  /// the runner; gates the fallback line in ToText()).
  bool snapshot_requested = false;
  uint64_t total_injections = 0;
  uint64_t total_instructions = 0;
  double wall_seconds = 0;  // whole campaign, one clock
  double cpu_seconds = 0;   // sum of per-scenario wall-clocks
  /// Union coverage across all scenarios, per module name: dense bitmaps
  /// of executed instruction offsets, OR-merged across workers (order
  /// independent, so deterministic for any jobs count). Empty when
  /// coverage is off.
  std::map<std::string, vm::CoverageBitmap> coverage;

  /// Recompute the aggregate counters from `results` (the runner calls
  /// this; exposed for report merging in tests/tools).
  void Aggregate();

  /// Human-readable summary table.
  std::string ToText() const;
};

/// Largest worker-thread count a campaign accepts, from the CLI (--jobs)
/// or from a fabric peer (the wire's options reader).
inline constexpr int kMaxJobs = 1'000'000;

struct CampaignOptions {
  /// Worker threads, 0..kMaxJobs; 0 = hardware concurrency. Scenario i
  /// runs on worker slot i % jobs (ParallelFor).
  int jobs = 1;
  std::string entry = "main";
  uint64_t max_instructions = 50'000'000;
  uint64_t default_heap_cap = 1 << 20;
  /// Track per-scenario and union basic-block coverage.
  bool track_coverage = false;
  /// Keep each scenario's per-module bitmaps in its ScenarioResult (the
  /// explorer's fitness input). Implies nothing unless track_coverage is
  /// also set; costs memory proportional to scenarios x touched modules.
  bool collect_scenario_coverage = false;
  /// Keep a replay plan per scenario (costs memory on big campaigns).
  bool collect_replays = false;
  /// Hash final machine state into ScenarioResult::state_digest (costs a
  /// pass over every segment per scenario; SEU classification needs it).
  bool collect_state_digest = false;
  /// Snapshot tree scenario execution: each worker warms its machine once
  /// (creates the entry process and runs `warmup_instructions` of
  /// fault-free prefix), takes the root snapshot at the fault-window entry
  /// point, and restores per scenario — O(dirty pages) — instead of
  /// resetting and rebuilding the process. The worker keeps a *tree* of
  /// snapshot nodes keyed by fault window, so a scenario whose
  /// (per-scenario) window sits past the campaign-wide warmup restores a
  /// window-local node in O(pages dirtied since that window): the first
  /// scenario at a new window pays restore-to-nearest + run-the-gap +
  /// capture once; everyone after restores directly. Reports are
  /// bit-identical to the cold path (test-enforced); scenarios that
  /// override the entry or heap cap, whose plan names the entry symbol
  /// itself, or whose window opens before the root, fall back to cold
  /// execution automatically.
  bool snapshot = false;
  /// Instructions of fault-free prefix executed before the fault window
  /// opens (quantum granularity). Applies to cold execution too, so
  /// snapshot and cold runs of the same scenario stay bit-identical: the
  /// plan installs only once the prefix has run. 0 = window opens at the
  /// entry point.
  uint64_t warmup_instructions = 0;
  /// Execution engine for worker machines (`--exec`, the only engine
  /// switch). Unset = the machine default, Superblock. All engines produce
  /// bit-identical reports (test-enforced), so this is an A/B and
  /// debugging knob, not a semantic one.
  std::optional<vm::ExecMode> exec_mode;
  core::ControllerOptions controller;
};

/// Mix a campaign base seed with a scenario index into a well-spread
/// per-scenario seed (splitmix64). Scenario builders use this so every
/// scenario owns an independent, reproducible RNG stream.
uint64_t DeriveSeed(uint64_t base, uint64_t index);

/// Run fn(slot, i) for i in 0..count-1 across `jobs` threads (0 =
/// hardware concurrency, capped at count). Static striding: index i runs
/// on slot i % workers, in ascending order within a slot, and each slot
/// is one thread — so per-slot state needs no lock. Blocks until all
/// calls return.
void ParallelFor(size_t count, int jobs,
                 const std::function<void(size_t slot, size_t i)>& fn);

}  // namespace lfi::campaign
