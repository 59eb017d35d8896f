// Machine: the whole synthetic computer — loader + kernel + processes +
// a round-robin scheduler. One Machine per experiment run.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel_runtime.hpp"
#include "sso/sso.hpp"
#include "vm/coverage.hpp"
#include "vm/loader.hpp"
#include "vm/process.hpp"
#include "vm/snapshot.hpp"

namespace lfi::vm {

/// Outcome of Machine::Run.
enum class RunOutcome {
  AllExited,    // every process exited or faulted
  Deadlock,     // all live processes blocked with no progress possible
  BudgetSpent,  // instruction budget exhausted
};

class Machine {
 public:
  /// Loads the kernel image and wires the spawn hook.
  Machine();
  ~Machine();

  Loader& loader() { return loader_; }
  kernel::KernelRuntime& kernel() { return kernel_; }

  /// Which interpreter engine newly-created processes use. Defaults to
  /// Superblock; campaigns set it from CampaignOptions::exec_mode.
  ExecMode exec_mode() const { return exec_mode_; }
  void SetExecMode(ExecMode mode);

  /// The machine-wide symbol interner (owned by the loader). Names resolve
  /// to dense SymbolIds once; everything per-call indexes by id.
  SymbolTable& symbols() { return loader_.symbols(); }
  const SymbolTable& symbols() const { return loader_.symbols(); }

  /// Load a shared object (order defines symbol search order). Fails,
  /// loading nothing, for an object beyond sso::CheckLimits. A module
  /// loaded after the checkpoint joins it at its loaded data, so Reset()
  /// and every snapshot node see it as freshly loaded.
  Result<size_t> Load(sso::SharedObject object);

  /// Create a process whose entry is the exported symbol `entry`.
  /// Returns the pid, or an error if the symbol does not resolve.
  Result<int> CreateProcess(const std::string& entry,
                            uint64_t heap_cap_bytes = 1 << 20);

  Process* process(int pid);
  const std::vector<std::unique_ptr<Process>>& processes() const {
    return procs_;
  }

  /// Capture the snapshot tree's root — every module's data and the
  /// kernel's complete state (in-memory files, listening ports), with no
  /// processes, zero counters and clear coverage — dropping any earlier
  /// tree. Taken implicitly at the first CreateProcess; call explicitly
  /// to pin later setup changes.
  void Checkpoint();

  /// Return the machine to its checkpoint without reloading modules:
  /// RestoreTo(0), which destroys all processes, restores the module data
  /// pages and kernel state that differ, zeroes counters and clears
  /// coverage; the instruction stops are dropped too. Interposition stubs
  /// are kept (the controller manages those). This is what makes a Machine
  /// reusable across campaign scenarios — reset, not rebuild. Before the
  /// checkpoint the machine has run nothing, so only the stops go.
  void Reset();

  // -- snapshot tree ---------------------------------------------------------
  /// Capture a new snapshot node as a child of the machine's current
  /// node: the scalar machine state in full (registers, shadow stacks,
  /// kernel host-side state, coverage, accounting) plus only the memory
  /// pages written since the current node — O(dirty pages). Checkpoints
  /// first when there is no tree. Returns the new node's id; the
  /// machine's current node becomes that node.
  SnapshotId PushSnapshot();
  /// Return to any node of the tree. Cost is O(pages that differ from the
  /// target): the pages in the current dirty journals plus those captured
  /// by nodes on the tree path between the current node and the target,
  /// each sourced from its newest writer at-or-above the target.
  /// Processes that no longer exist (destroyed by an earlier restore or
  /// Reset()) are rebuilt from materialized images. Returns false —
  /// machine untouched — for an id the tree does not hold.
  bool RestoreTo(SnapshotId id);
  /// The node the machine last captured or restored: the parent of the
  /// next PushSnapshot. kNoSnapshot before the checkpoint.
  SnapshotId current_snapshot() const { return current_node_; }
  size_t snapshot_node_count() const { return tree_.nodes.size(); }
  /// Cumulative restore-cost counters (bench telemetry).
  const SnapshotRestoreStats& restore_stats() const { return restore_stats_; }

  // -- flat snapshot (the root's one child) ----------------------------------
  /// Capture the complete machine state as node 1, the root's only child,
  /// dropping every other node but the root. A campaign warms the target
  /// to its fault-window entry point once, snapshots, and then restores
  /// per scenario instead of re-running setup.
  void Snapshot();
  bool has_snapshot() const { return tree_.nodes.size() > 1; }
  /// Return to node 1 (the flat Snapshot() point).
  bool RestoreSnapshot() { return RestoreTo(1); }

  /// Round-robin scheduling until every process terminates, deadlock, or
  /// `max_instructions` total were executed.
  RunOutcome Run(uint64_t max_instructions = 100'000'000);

  // -- precise instruction stops ---------------------------------------------
  /// Arm `fn` to fire the first time the machine-wide executed-instruction
  /// count reaches `at` (or immediately at the next Run round if `at` is
  /// already in the past). Run clamps the per-process budget to the
  /// nearest armed stop, so the callback observes the exact architectural
  /// state at instruction `at` in every engine — the superblock engine's
  /// fused spans end at the clamped budget, which is its mid-span
  /// deoptimization point. Callbacks may mutate process registers/memory
  /// (the SEU injector does) but must not call Run, Reset, or snapshot
  /// operations. Stops that never come due (the machine halts first)
  /// simply do not fire.
  void ArmInstructionStop(uint64_t at, std::function<void(Machine&)> fn);
  /// Drop all armed stops (fired or not).
  void ClearInstructionStops();
  size_t armed_stop_count() const { return stops_.size(); }

  /// FNV-1a digest of guest-visible architectural state: every process's
  /// registers, flags, pc, status, and memory segments, plus each loaded
  /// module's runtime data section. Deterministic for a deterministic
  /// schedule, so equal digests across engines / snapshot modes / jobs
  /// counts mean bit-identical final states; SEU campaigns compare it
  /// against a golden run to detect silent data corruption. Host-side
  /// kernel state (in-memory files) is deliberately out of scope.
  uint64_t StateDigest() const;

  /// Convenience: run a single-process machine and report its exit.
  struct ExitInfo {
    ProcState state = ProcState::Exited;
    int64_t exit_code = 0;
    Signal signal = Signal::None;
    std::string fault_message;
  };
  ExitInfo RunToCompletion(int pid, uint64_t max_instructions = 100'000'000);

  uint64_t total_instructions() const { return total_instructions_; }

  /// Scheduler round length. Public because Run(max) is an absolute
  /// target measured in whole rounds: running to instruction target W
  /// from any restored point at-or-before W reproduces the cold state at
  /// W exactly, provided W is compared against the same quantum-rounded
  /// schedule — which is what lets campaign code place snapshot windows
  /// at quantum-aligned instants.
  static constexpr uint64_t kQuantum = 2000;

  /// Enable basic-block coverage collection on all (current and future)
  /// processes; returns the tracker.
  CoverageTracker* EnableCoverage();
  CoverageTracker* coverage() { return coverage_.get(); }

 private:
  /// Size per-module coverage bitmaps from module text lengths (no-op when
  /// coverage is off). Keeps CoverageTracker::Record allocation-free.
  void SyncCoverageModules();

  Loader loader_;
  kernel::KernelRuntime kernel_;
  /// Syscall number -> handler address; 0 = unimplemented. Flat array so
  /// the SYSCALL opcode is an index, not a tree search.
  std::vector<uint64_t> syscall_targets_;
  ExecMode exec_mode_ = ExecMode::Superblock;
  /// A process for `pid`: a retired one with the same heap size,
  /// Recycle()d, or a new one. Either way exec mode and coverage are set.
  std::unique_ptr<Process> NewProcess(int pid, uint64_t heap_cap_bytes);
  /// Retire procs_[first..] into the spare pool and drop their slots.
  void RetireFrom(size_t first);
  /// Keep `proc` for a later NewProcess (dropped beyond a small cap).
  void Retire(std::unique_ptr<Process> proc);

  /// The process pool: processes destroyed by Reset or a restore, kept
  /// whole (segments, dirty maps, address space, shadow capacity) so the
  /// next spawn or rebuild reuses one instead of allocating.
  std::vector<std::unique_ptr<Process>> spare_procs_;
  static constexpr size_t kMaxSpareProcs = 8;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<bool> exit_reported_;
  uint64_t total_instructions_ = 0;
  std::unique_ptr<CoverageTracker> coverage_;
  /// Empty until the checkpoint captures its root.
  SnapshotTree tree_;
  /// The tree node the live machine state extends (journals record writes
  /// since its capture); kNoSnapshot only before the checkpoint.
  SnapshotId current_node_ = kNoSnapshot;
  SnapshotRestoreStats restore_stats_;
  /// RestoreTo's scratch (tree path, page sets), kept so warm restores
  /// allocate nothing.
  std::vector<SnapshotId> restore_path_;
  std::vector<uint32_t> restore_pages_;
  uint64_t default_heap_cap_ = 1 << 20;

  struct InstructionStop {
    uint64_t at = 0;
    std::function<void(Machine&)> fn;
  };
  /// Sorted ascending by `at`; Run pops from the front as stops fire.
  std::vector<InstructionStop> stops_;
  /// Fire (and remove) every stop with at <= now.
  void FireDueStops(uint64_t now);

  /// A node capturing the live state as a child of `parent` (the root
  /// when kNoSnapshot); restarts every journal. Memory is a delta against
  /// the current node when that is the parent, else every page.
  SnapshotNode CaptureNode(SnapshotId parent);
  /// Append `node` to the tree and make it the current node.
  SnapshotId AddNode(SnapshotNode node);
};

}  // namespace lfi::vm
