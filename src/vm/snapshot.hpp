// Snapshot tree (vm::Machine::Checkpoint / PushSnapshot / RestoreTo).
//
// A SnapshotTree pins a *family* of moments of one machine. Its root is
// the machine's checkpoint: module data and kernel state at setup, no
// processes, zero counters, clear coverage. Machine::Reset is a restore
// to the root. Every other node is a moment of a warmed-up machine —
// typically a campaign target's fault-window entry points, one node per
// window depth. Each node stores the cheap machine state in full
// (registers, shadow stacks, kernel host-side state, coverage,
// instruction accounting — kilobytes) but stores memory as a PageDelta:
// only the pages written between its parent's capture and its own. The
// root captures every module page, so the content of page p at any node N
// is defined by the first delta containing p on the walk N -> root (the
// per-page newest-writer rule).
//
// Capture is O(pages dirtied since the parent); restoring from the
// machine's current node to any node is O(pages that differ between
// them): the current dirty journals, plus the deltas on the tree path
// between the two nodes. A process the target holds but the machine lacks
// (destroyed by a Reset or an earlier restore) is rebuilt by replaying
// its deltas from its last full capture down to the target.
//
// The flat Machine::Snapshot/RestoreSnapshot API is the root's one child.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "isa/isa.hpp"
#include "kernel/kernel_runtime.hpp"
#include "vm/coverage.hpp"
#include "vm/process.hpp"

namespace lfi::vm {

/// The scalar (non-memory) slice of one process's state: everything a
/// resume needs except the segment images. Cheap to copy, stored in full
/// by every tree node.
struct ProcessCore {
  int pid = 0;
  int64_t regs[isa::kNumRegs] = {};
  int flags = 0;
  uint64_t pc = 0;
  ProcState state = ProcState::Runnable;
  Signal signal = Signal::None;
  int64_t exit_code = 0;
  bool pending_exit = false;
  std::string fault_message;
  uint64_t instructions = 0;
  uint64_t heap_cursor = 0;
  std::vector<Frame> shadow;
};

/// One process's slice of a tree node: scalar core in full, segments as
/// page deltas against the parent node.
struct ProcessNodeState {
  ProcessCore core;
  uint64_t stack_bytes = 0;
  uint64_t heap_bytes = 0;
  uint64_t tls_bytes = 0;
  PageDelta stack;
  PageDelta heap;
  PageDelta tls;
  /// The deltas hold every page: processes whose journal was not live
  /// across the whole parent->child window (absent from the parent,
  /// spawned since its capture, or realigned). The ancestor walk for this process
  /// never continues past a full node.
  bool full = false;
};

/// One snapshot tree node: delta memory, full cheap state.
struct SnapshotNode {
  SnapshotId parent = kNoSnapshot;
  uint32_t depth = 0;
  uint64_t total_instructions = 0;
  std::vector<bool> exit_reported;
  std::vector<ProcessNodeState> procs;
  /// Per-module delta of data_runtime, indexed by the loader's dense
  /// module index.
  std::vector<PageDelta> module_data;
  kernel::KernelRuntime::State kernel;
  /// Coverage tracker contents at the capture point; empty when coverage
  /// was off, and in the root.
  CoverageTracker coverage;
};
// The tree's node vector moves its nodes when it grows; a copying member
// would deep-copy every page delta and kernel state instead.
static_assert(std::is_nothrow_move_constructible_v<SnapshotNode>);

/// Cumulative Machine::RestoreTo cost counters: how much work restores
/// actually did. `pages_restored` counts 4 KiB pages copied into live
/// memory (or into a rebuilt process's materialized image);
/// `nodes_walked` counts tree nodes visited to source page contents and
/// compute difference sets. Bench telemetry — sample before/after a
/// scenario for its restore cost.
struct SnapshotRestoreStats {
  uint64_t restores = 0;
  uint64_t pages_restored = 0;
  uint64_t nodes_walked = 0;
};

/// Node 0 is the root. Every node holds one module_data delta per loaded
/// module: a module loaded after the root's capture joins the root in
/// full and every other node with an empty delta.
struct SnapshotTree {
  std::vector<SnapshotNode> nodes;
};

/// Tree path between nodes `a` and `b`: every node strictly below their
/// lowest common ancestor on either side, i.e. exactly the nodes whose
/// deltas can make the two states differ. Overwrites `*path`, reusing its
/// storage.
void TreePathBetween(const SnapshotTree& tree, SnapshotId a, SnapshotId b,
                     std::vector<SnapshotId>* path);

/// Content of module `m`'s data page `page` at node `target`: newest
/// writer at-or-above target. Never nullptr (the root is full).
/// `nodes_walked` (optional) accumulates ancestor steps taken.
const uint8_t* FindModulePage(const SnapshotTree& tree, SnapshotId target,
                              size_t m, uint32_t page,
                              uint64_t* nodes_walked);

/// Content of process `proc_index`'s page `page` in the segment selected
/// by `sel` at node `target` (newest writer at-or-above target).
const uint8_t* FindProcPage(const SnapshotTree& tree, SnapshotId target,
                            size_t proc_index,
                            const PageDelta ProcessNodeState::*sel,
                            uint32_t page, uint64_t* nodes_walked);

}  // namespace lfi::vm
