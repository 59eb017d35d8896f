#include "vm/machine.hpp"

#include <algorithm>
#include <cstring>

#include "kernel/kernel_image.hpp"
#include "vm/snapshot.hpp"

namespace lfi::vm {

Machine::~Machine() = default;

Machine::Machine() {
  size_t kidx = loader_.Load(kernel::BuildKernelImage()).value();
  const LoadedModule& kmod = *loader_.modules()[kidx];
  for (const auto& spec : kernel::SyscallTable()) {
    const isa::Symbol* sym = kmod.object.find_export(kernel::HandlerName(spec));
    if (sym) {
      uint16_t number = static_cast<uint16_t>(spec.number);
      if (number >= syscall_targets_.size()) {
        syscall_targets_.resize(number + 1, 0);
      }
      syscall_targets_[number] = kmod.code_base + sym->offset;
    }
  }
  kernel_.set_spawn_hook([this](const std::string& symbol) -> Result<int> {
    auto pid = CreateProcess(symbol, default_heap_cap_);
    return pid;
  });
}

void Machine::SetExecMode(ExecMode mode) {
  exec_mode_ = mode;
  for (auto& p : procs_) p->set_exec_mode(mode);
}

Result<size_t> Machine::Load(sso::SharedObject object) {
  Result<size_t> index = loader_.Load(std::move(object));
  if (index.ok() && !tree_.nodes.empty()) {
    // The checkpoint never saw this module: it joins the root as loaded,
    // and every later node inherits that page for page.
    LoadedModule& mod = *loader_.modules()[index.value()];
    for (SnapshotNode& node : tree_.nodes) node.module_data.emplace_back();
    tree_.nodes[0].module_data.back() =
        CaptureAllPages(mod.data_runtime.data(), mod.data_runtime.size());
    mod.data_dirty.Enable(mod.data_runtime.size());
  }
  SyncCoverageModules();
  return index;
}

void Machine::Checkpoint() {
  SnapshotNode root = CaptureNode(kNoSnapshot);
  tree_.nodes.clear();
  AddNode(std::move(root));
}

void Machine::Reset() {
  if (!tree_.nodes.empty()) RestoreTo(0);
  stops_.clear();
}

SnapshotNode Machine::CaptureNode(SnapshotId parent) {
  SnapshotNode node;
  node.parent = parent;
  node.kernel = kernel_.CaptureState();
  // The journals hold the writes since the current node, so only a child
  // of that node can be a delta; any other node holds every page.
  const bool delta = parent != kNoSnapshot && parent == current_node_;
  node.module_data.reserve(loader_.modules().size());
  for (const auto& mod : loader_.modules()) {
    node.module_data.push_back(
        delta ? CaptureDirtyPages(mod->data_dirty, mod->data_runtime.data(),
                                  mod->data_runtime.size())
              : CaptureAllPages(mod->data_runtime.data(),
                                mod->data_runtime.size()));
    mod->data_dirty.Enable(mod->data_runtime.size());
    mod->data_dirty.ClearAll();
  }
  // The root holds no processes, zero counters and no coverage (a restore
  // clears the tracker for it).
  if (parent == kNoSnapshot) return node;
  node.depth = tree_.nodes[parent].depth + 1;
  node.total_instructions = total_instructions_;
  node.exit_reported = exit_reported_;
  if (coverage_) node.coverage = *coverage_;
  const std::vector<ProcessNodeState>& parent_procs =
      tree_.nodes[parent].procs;
  node.procs.resize(procs_.size());
  for (size_t i = 0; i < procs_.size(); ++i) {
    // A process delta is only meaningful if the parent node captured this
    // same process (index, pid, segment sizes) and its journal was live
    // across the whole window; anything else — spawned since the parent,
    // realigned — is captured in full so the ancestor walk for its pages
    // always terminates.
    const bool aligned =
        delta && i < parent_procs.size() &&
        parent_procs[i].core.pid == procs_[i]->pid() &&
        parent_procs[i].heap_bytes == procs_[i]->heap_bytes() &&
        procs_[i]->dirty_tracking_enabled();
    procs_[i]->CaptureNode(&node.procs[i], /*full=*/!aligned);
  }
  return node;
}

SnapshotId Machine::AddNode(SnapshotNode node) {
  tree_.nodes.push_back(std::move(node));
  current_node_ = static_cast<SnapshotId>(tree_.nodes.size() - 1);
  return current_node_;
}

SnapshotId Machine::PushSnapshot() {
  if (tree_.nodes.empty()) Checkpoint();
  return AddNode(CaptureNode(current_node_));
}

void Machine::Snapshot() {
  if (tree_.nodes.empty()) Checkpoint();
  SnapshotNode node = CaptureNode(0);
  tree_.nodes.erase(tree_.nodes.begin() + 1, tree_.nodes.end());
  AddNode(std::move(node));
}

bool Machine::RestoreTo(SnapshotId target) {
  if (target >= tree_.nodes.size()) return false;
  const SnapshotTree& tree = tree_;
  const SnapshotNode& node = tree.nodes[target];
  ++restore_stats_.restores;
  // Nodes whose deltas can make the current state differ from the target:
  // both sides of the tree path to their common ancestor.
  std::vector<SnapshotId>& path = restore_path_;
  TreePathBetween(tree, current_node_, target, &path);
  restore_stats_.nodes_walked += path.size();
  std::vector<uint32_t>& pages = restore_pages_;

  for (size_t m = 0; m < loader_.modules().size(); ++m) {
    LoadedModule& mod = *loader_.modules()[m];
    if (mod.data_runtime.empty()) continue;
    pages.clear();
    mod.data_dirty.ForEachDirtyPage(
        [&](uint64_t p) { pages.push_back(static_cast<uint32_t>(p)); });
    for (SnapshotId id : path) {
      const PageDelta& d = tree.nodes[id].module_data[m];
      pages.insert(pages.end(), d.pages.begin(), d.pages.end());
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (uint32_t page : pages) {
      uint64_t off = uint64_t{page} << DirtyMap::kPageBits;
      if (off >= mod.data_runtime.size()) continue;
      const uint8_t* src = FindModulePage(tree, target, m, page,
                                          &restore_stats_.nodes_walked);
      std::memcpy(mod.data_runtime.data() + off, src,
                  std::min(DirtyMap::kPageSize, mod.data_runtime.size() - off));
      ++restore_stats_.pages_restored;
    }
    mod.data_dirty.ClearAll();
  }

  // Per process: in place (O(pages that differ)) when the live process is
  // the one the target captured and its journal is live; otherwise rebuild
  // from a materialized image (post-Reset, or re-spawned/truncated since).
  const size_t want = node.procs.size();
  for (size_t i = 0; i < want; ++i) {
    const ProcessNodeState& tps = node.procs[i];
    bool in_place =
        i < procs_.size() && procs_[i]->pid() == tps.core.pid &&
        procs_[i]->heap_bytes() == tps.heap_bytes &&
        procs_[i]->dirty_tracking_enabled();
    if (in_place) {
      procs_[i]->RestoreFromTree(tree, target, i, path, &restore_stats_,
                                 &pages);
    } else {
      std::unique_ptr<Process> proc = NewProcess(tps.core.pid, tps.heap_bytes);
      proc->MaterializeFromTree(tree, target, i);
      auto seg_pages = [](uint64_t bytes) {
        return (bytes + DirtyMap::kPageSize - 1) >> DirtyMap::kPageBits;
      };
      restore_stats_.pages_restored += seg_pages(tps.stack_bytes) +
                                       seg_pages(tps.heap_bytes) +
                                       seg_pages(tps.tls_bytes);
      if (i < procs_.size()) {
        Retire(std::move(procs_[i]));
        procs_[i] = std::move(proc);
      } else {
        procs_.push_back(std::move(proc));
      }
    }
  }
  RetireFrom(want);  // drop scenario-spawned extras

  exit_reported_ = node.exit_reported;
  total_instructions_ = node.total_instructions;
  kernel_.RestoreState(node.kernel);
  if (coverage_) {
    // A node captured without coverage (the root among them) holds none:
    // clear the bitmaps in place rather than reallocate them.
    if (node.coverage.module_count() == 0) {
      coverage_->Clear();
    } else {
      *coverage_ = node.coverage;
      SyncCoverageModules();  // modules loaded since the capture
    }
  }
  current_node_ = target;
  return true;
}

Result<int> Machine::CreateProcess(const std::string& entry,
                                   uint64_t heap_cap_bytes) {
  // Setup is everything before the first process: checkpoint it so
  // Reset() restores the configured machine even without an explicit
  // Checkpoint() call.
  if (tree_.nodes.empty()) Checkpoint();
  Target target = loader_.ResolveName(entry);
  if (target.kind != Target::Kind::Code) {
    return Err("machine: cannot resolve entry symbol: " + entry);
  }
  int pid = static_cast<int>(procs_.size()) + 1;
  std::unique_ptr<Process> proc = NewProcess(pid, heap_cap_bytes);
  proc->Start(target.addr);
  procs_.push_back(std::move(proc));
  exit_reported_.push_back(false);
  return pid;
}

std::unique_ptr<Process> Machine::NewProcess(int pid,
                                             uint64_t heap_cap_bytes) {
  std::unique_ptr<Process> proc;
  const uint64_t heap_bytes = Process::HeapBytesFor(heap_cap_bytes);
  for (auto it = spare_procs_.begin(); it != spare_procs_.end(); ++it) {
    if ((*it)->heap_bytes() == heap_bytes) {
      proc = std::move(*it);
      spare_procs_.erase(it);
      proc->Recycle(pid);
      break;
    }
  }
  if (!proc) {
    proc = std::make_unique<Process>(pid, loader_, kernel_, syscall_targets_,
                                     heap_cap_bytes);
  }
  proc->set_exec_mode(exec_mode_);
  proc->set_coverage(coverage_.get());
  return proc;
}

void Machine::Retire(std::unique_ptr<Process> proc) {
  if (spare_procs_.size() < kMaxSpareProcs) {
    spare_procs_.push_back(std::move(proc));
  }
}

void Machine::RetireFrom(size_t first) {
  for (size_t i = first; i < procs_.size(); ++i) Retire(std::move(procs_[i]));
  procs_.resize(std::min(first, procs_.size()));
}

Process* Machine::process(int pid) {
  size_t idx = static_cast<size_t>(pid) - 1;
  return idx < procs_.size() ? procs_[idx].get() : nullptr;
}

RunOutcome Machine::Run(uint64_t max_instructions) {
  while (total_instructions_ < max_instructions) {
    bool any_live = false;
    uint64_t progressed = 0;
    bool real_progress = false;  // beyond re-trying a blocked syscall
    // Snapshot count: processes spawned during this round run next round.
    size_t count = procs_.size();
    for (size_t i = 0; i < count; ++i) {
      Process& p = *procs_[i];
      p.WakeIfBlocked();
      if (p.state() == ProcState::Runnable) {
        any_live = true;
        // Sub-slice the quantum around armed instruction stops: the budget
        // handed to the engine never crosses a stop instant, so the stop
        // callback runs at exactly instruction `at` — Process::Run(budget)
        // is budget-exact in all three engines, which is what makes the
        // SEU flip land on the same architectural state everywhere.
        uint64_t executed = 0;
        while (true) {
          if (!stops_.empty()) FireDueStops(total_instructions_ + progressed);
          if (p.state() != ProcState::Runnable || executed >= kQuantum) break;
          uint64_t budget = kQuantum - executed;
          if (!stops_.empty()) {
            uint64_t until = stops_.front().at - (total_instructions_ +
                                                  progressed);
            if (until < budget) budget = until;
          }
          uint64_t ran = p.Run(budget);
          executed += ran;
          progressed += ran;
          // Blocked/exited processes stop mid-budget; re-check state at
          // the loop head. A zero-progress Runnable return cannot recur
          // (budget >= 1 here), but guard against a livelock anyway.
          if (ran == 0 && p.state() == ProcState::Runnable) break;
          if (p.state() != ProcState::Runnable) break;
        }
        if (!stops_.empty()) FireDueStops(total_instructions_ + progressed);
        // A process that immediately re-blocks after one retried
        // instruction made no real progress; anything else did.
        if (p.state() != ProcState::Blocked || executed > 1) {
          real_progress = true;
        }
      }
      // Report terminations to the kernel exactly once (releases fds so
      // pipe peers observe EOF, and records exit codes for wait()).
      if ((p.state() == ProcState::Exited || p.state() == ProcState::Faulted) &&
          !exit_reported_[i]) {
        int64_t code = p.state() == ProcState::Exited
                           ? p.exit_code()
                           : 128 + static_cast<int64_t>(p.signal());
        kernel_.on_process_exit(p.pid(), code);
        exit_reported_[i] = true;
      }
    }
    total_instructions_ += progressed;
    if (procs_.size() != count) continue;  // new spawns: another round
    if (!any_live) {
      // No runnable process: either all done, or all blocked (deadlock).
      for (const auto& p : procs_) {
        if (p->state() == ProcState::Blocked) return RunOutcome::Deadlock;
      }
      return RunOutcome::AllExited;
    }
    if (!real_progress) {
      // Every live process is parked on a blocking syscall that cannot be
      // satisfied by anyone: deadlock.
      bool any_blocked = false, any_runnable = false;
      for (const auto& p : procs_) {
        any_blocked |= p->state() == ProcState::Blocked;
        any_runnable |= p->state() == ProcState::Runnable;
      }
      if (any_blocked && !any_runnable) return RunOutcome::Deadlock;
      if (!any_blocked && !any_runnable) return RunOutcome::AllExited;
    }
  }
  return RunOutcome::BudgetSpent;
}

Machine::ExitInfo Machine::RunToCompletion(int pid, uint64_t max_instructions) {
  Run(max_instructions);
  ExitInfo info;
  if (Process* p = process(pid)) {
    info.state = p->state();
    info.exit_code = p->exit_code();
    info.signal = p->signal();
    info.fault_message = p->fault_message();
  }
  return info;
}

void Machine::ArmInstructionStop(uint64_t at, std::function<void(Machine&)> fn) {
  InstructionStop stop{at, std::move(fn)};
  auto pos = std::lower_bound(
      stops_.begin(), stops_.end(), stop,
      [](const InstructionStop& a, const InstructionStop& b) {
        return a.at < b.at;
      });
  stops_.insert(pos, std::move(stop));
}

void Machine::ClearInstructionStops() { stops_.clear(); }

void Machine::FireDueStops(uint64_t now) {
  while (!stops_.empty() && stops_.front().at <= now) {
    // Detach before invoking: the callback may arm new stops.
    InstructionStop stop = std::move(stops_.front());
    stops_.erase(stops_.begin());
    stop.fn(*this);
  }
}

uint64_t Machine::StateDigest() const {
  uint64_t h = kDigestBasis;
  DigestMix(h, procs_.size());
  for (const auto& p : procs_) DigestMix(h, p->StateDigest());
  for (const auto& mod : loader_.modules()) {
    DigestMixBytes(h, mod->data_runtime.data(), mod->data_runtime.size());
  }
  return h;
}

CoverageTracker* Machine::EnableCoverage() {
  if (!coverage_) {
    coverage_ = std::make_unique<CoverageTracker>();
    SyncCoverageModules();
    for (auto& p : procs_) p->set_coverage(coverage_.get());
  }
  return coverage_.get();
}

void Machine::SyncCoverageModules() {
  if (!coverage_) return;
  for (const auto& mod : loader_.modules()) {
    coverage_->EnsureModule(mod->index, mod->object.code.size());
  }
}

}  // namespace lfi::vm
