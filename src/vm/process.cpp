#include "vm/process.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/strings.hpp"
#include "vm/snapshot.hpp"

namespace lfi::vm {

using isa::Opcode;
using isa::Reg;

const char* SignalName(Signal s) {
  switch (s) {
    case Signal::None: return "none";
    case Signal::Segv: return "SIGSEGV";
    case Signal::Abort: return "SIGABRT";
    case Signal::Ill: return "SIGILL";
  }
  return "?";
}

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::Superblock: return "superblock";
    case ExecMode::Reference: return "reference";
  }
  return "?";
}

std::optional<ExecMode> ParseExecMode(std::string_view name) {
  if (name == "superblock") return ExecMode::Superblock;
  if (name == "reference") return ExecMode::Reference;
  return std::nullopt;
}

namespace {
// Two's-complement guest arithmetic (exec_ops.inc): computed in uint64_t,
// where wrapping is defined, and converted back (modular since C++20).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
}  // namespace

Process::Process(int pid, Loader& loader, kernel::KernelRuntime& kernel,
                 const std::vector<uint64_t>& syscall_targets,
                 uint64_t heap_cap_bytes)
    : pid_(pid),
      loader_(loader),
      kernel_(kernel),
      syscall_targets_(syscall_targets),
      stack_mem_(kStackSize),
      heap_mem_(HeapBytesFor(heap_cap_bytes)),
      tls_mem_(kTlsSize),
      stack_dirty_(stack_mem_.size()),
      heap_dirty_(heap_mem_.size()),
      tls_dirty_(tls_mem_.size()) {
  // Mapped from birth, so kernel-side and instruction-stop accesses work
  // on a process rebuilt by a snapshot restore before it runs again.
  RemapIfNeeded();
}

void Process::Recycle(int pid) {
  pid_ = pid;
  std::fill(std::begin(regs_), std::end(regs_), 0);
  flags_ = 0;
  pc_ = 0;
  state_ = ProcState::Runnable;
  signal_ = Signal::None;
  exit_code_ = 0;
  pending_exit_ = false;
  fault_message_.clear();
  instructions_ = 0;
  heap_cursor_ = 0;
  shadow_.clear();
  for (auto [dirty, mem] : {std::pair{&stack_dirty_, &stack_mem_},
                            std::pair{&heap_dirty_, &heap_mem_},
                            std::pair{&tls_dirty_, &tls_mem_}}) {
    // Pages outside the written set are still zero.
    dirty->ForEachWrittenPage([mem](uint64_t page) {
      uint64_t off = page << DirtyMap::kPageBits;
      std::memset(mem->data() + off, 0,
                  std::min(DirtyMap::kPageSize, mem->size() - off));
    });
    dirty->ClearWritten();
    dirty->Disable();
  }
  RemapIfNeeded();  // as at construction: modules may have loaded since
}

void Process::Start(uint64_t entry_addr) {
  regs_[static_cast<size_t>(Reg::SP)] =
      static_cast<int64_t>(kStackBase + kStackSize);
  Push(static_cast<int64_t>(kExitSentinel));
  pc_ = entry_addr;
  shadow_.push_back(Frame{entry_addr, kExitSentinel});
  state_ = ProcState::Runnable;
}

uint64_t Process::alloc_heap(uint64_t size) {
  // Reject before rounding so a near-UINT64_MAX request cannot wrap the
  // alignment arithmetic (or the cursor) into a tiny "successful" grant.
  if (size > heap_mem_.size()) return 0;  // cap: ENOMEM
  uint64_t aligned = (size + 15) & ~uint64_t{15};
  if (aligned == 0) aligned = 16;
  if (aligned > heap_mem_.size() - heap_cursor_) return 0;  // cap: ENOMEM
  uint64_t addr = kHeapBase + heap_cursor_;
  heap_cursor_ += aligned;
  return addr;
}

void Process::Fault(Signal sig, std::string message) {
  state_ = ProcState::Faulted;
  signal_ = sig;
  fault_message_ = std::move(message);
}

// The guest-memory helpers below run inside ExecSpanFused's fused loop,
// whose size defeats GCC's inliner: force them in so a stack or heap
// access is a few compares and a memcpy, not a call.
#define LFI_ALWAYS_INLINE inline __attribute__((always_inline))

LFI_ALWAYS_INLINE uint8_t* Process::FastMemPtr(uint64_t addr, uint64_t len,
                                               bool for_write) {
  // The synthetic layout is arithmetic (vm/memory.hpp), so the containing
  // segment of almost every access is computable without the AddressSpace
  // region search. Order by access frequency: stack, heap, TLS, modules.
  // Writes mark the segment's dirty journal (a no-op until a snapshot
  // capture enables it) so a restore can be O(dirty pages).
  uint64_t off = addr - kStackBase;
  if (off < kStackSize && kStackSize - off >= len) {
    if (for_write) stack_dirty_.Mark(off, len);
    return stack_mem_.data() + off;
  }
  off = addr - kHeapBase;
  if (off < heap_mem_.size() && heap_mem_.size() - off >= len) {
    if (for_write) heap_dirty_.Mark(off, len);
    return heap_mem_.data() + off;
  }
  off = addr - kTlsBase;
  if (off < tls_mem_.size() && tls_mem_.size() - off >= len) {
    if (for_write) tls_dirty_.Mark(off, len);
    return tls_mem_.data() + off;
  }
  return addr >= kModuleBase ? ModuleMemPtr(addr, len, for_write) : nullptr;
}

uint8_t* Process::ModuleMemPtr(uint64_t addr, uint64_t len, bool for_write) {
  // A module loaded since the last remap is not in space_ yet: leave the
  // verdict to it, so both paths agree on every address.
  if (mapped_generation_ != loader_.module_generation()) return nullptr;
  size_t index = ModuleIndexOf(addr);
  const auto& modules = loader_.modules();
  if (index >= modules.size()) return nullptr;
  LoadedModule& mod = *modules[index];
  uint64_t rel = addr - mod.code_base;
  if (rel >= kModuleDataDelta) {
    uint64_t doff = rel - kModuleDataDelta;
    if (doff < mod.data_runtime.size() &&
        mod.data_runtime.size() - doff >= len) {
      if (for_write) mod.data_dirty.Mark(doff, len);
      return mod.data_runtime.data() + doff;
    }
  } else if (!for_write && rel < mod.object.code.size() &&
             mod.object.code.size() - rel >= len) {
    return const_cast<uint8_t*>(mod.object.code.data() + rel);
  }
  return nullptr;
}

template <bool kFast>
LFI_ALWAYS_INLINE bool Process::ReadU64(uint64_t addr, uint64_t* out) {
  if constexpr (kFast) {
    if (const uint8_t* p = FastMemPtr(addr, 8, /*for_write=*/false)) {
      std::memcpy(out, p, 8);
      return true;
    }
  }
  return space_.read_u64(addr, out);
}

template <bool kFast>
LFI_ALWAYS_INLINE bool Process::WriteU64(uint64_t addr, uint64_t value) {
  if constexpr (kFast) {
    if (uint8_t* p = FastMemPtr(addr, 8, /*for_write=*/true)) {
      std::memcpy(p, &value, 8);
      return true;
    }
  }
  return space_.write_u64(addr, value);
}

template <bool kFast>
LFI_ALWAYS_INLINE bool Process::PushT(int64_t v) {
  int64_t sp = WrapSub(regs_[static_cast<size_t>(Reg::SP)], 8);
  regs_[static_cast<size_t>(Reg::SP)] = sp;
  if (!WriteU64<kFast>(static_cast<uint64_t>(sp), static_cast<uint64_t>(v))) {
    Fault(Signal::Segv, Format("stack overflow at sp=%llx",
                               (unsigned long long)sp));
    return false;
  }
  return true;
}

template <bool kFast>
LFI_ALWAYS_INLINE bool Process::PopT(int64_t* v) {
  int64_t sp = regs_[static_cast<size_t>(Reg::SP)];
  uint64_t raw = 0;
  if (!ReadU64<kFast>(static_cast<uint64_t>(sp), &raw)) {
    Fault(Signal::Segv, Format("stack underflow at sp=%llx",
                               (unsigned long long)sp));
    return false;
  }
  regs_[static_cast<size_t>(Reg::SP)] = WrapAdd(sp, 8);
  *v = static_cast<int64_t>(raw);
  return true;
}

bool Process::read_mem(uint64_t addr, void* out, uint64_t len) {
  if (const uint8_t* p = FastMemPtr(addr, len, /*for_write=*/false)) {
    if (len != 0) std::memcpy(out, p, len);
    return true;
  }
  return space_.read(addr, out, len);
}

bool Process::write_mem(uint64_t addr, const void* src, uint64_t len) {
  if (uint8_t* p = FastMemPtr(addr, len, /*for_write=*/true)) {
    if (len != 0) std::memcpy(p, src, len);
    return true;
  }
  return space_.write(addr, src, len);
}

bool Process::Push(int64_t v) { return PushT<true>(v); }

// -- snapshot support ---------------------------------------------------------

void Process::CaptureCore(ProcessCore* out) const {
  out->pid = pid_;
  std::copy(std::begin(regs_), std::end(regs_), std::begin(out->regs));
  out->flags = flags_;
  out->pc = pc_;
  out->state = state_;
  out->signal = signal_;
  out->exit_code = exit_code_;
  out->pending_exit = pending_exit_;
  out->fault_message = fault_message_;
  out->instructions = instructions_;
  out->heap_cursor = heap_cursor_;
  out->shadow = shadow_;
}

void Process::RestoreCore(const ProcessCore& core) {
  std::copy(std::begin(core.regs), std::end(core.regs), std::begin(regs_));
  flags_ = core.flags;
  pc_ = core.pc;
  state_ = core.state;
  signal_ = core.signal;
  exit_code_ = core.exit_code;
  pending_exit_ = core.pending_exit;
  fault_message_ = core.fault_message;
  instructions_ = core.instructions;
  heap_cursor_ = core.heap_cursor;
  shadow_ = core.shadow;
}

void Process::MaterializeFromTree(const SnapshotTree& tree,
                                  SnapshotId target, size_t proc_index) {
  const ProcessNodeState& tps = tree.nodes[target].procs[proc_index];
  assert(tps.stack_bytes == stack_mem_.size() &&
         tps.heap_bytes == heap_mem_.size() &&
         tps.tls_bytes == tls_mem_.size() &&
         "snapshot/process segment size mismatch");
  RestoreCore(tps.core);
  // The deltas from the last full capture down to the target, applied
  // oldest first so newer writes land on top. Walk up to the full node,
  // then back down through the parent links' reverse.
  SnapshotId oldest = target;
  while (!tree.nodes[oldest].procs[proc_index].full &&
         tree.nodes[oldest].parent != kNoSnapshot) {
    oldest = tree.nodes[oldest].parent;
  }
  auto apply = [](const PageDelta& delta, DirtyMap& dirty, Segment& mem) {
    for (size_t i = 0; i < delta.pages.size(); ++i) {
      uint64_t off = uint64_t{delta.pages[i]} << DirtyMap::kPageBits;
      if (off >= mem.size()) continue;
      const uint64_t len = std::min(DirtyMap::kPageSize, mem.size() - off);
      const uint8_t* src = delta.bytes.data() + i * DirtyMap::kPageSize;
      std::memcpy(mem.data() + off, src, len);
      // Only non-zero pages enter the written set: a zero image page left
      // its target page zero, so recycling need not clean it.
      if (std::any_of(src, src + len, [](uint8_t b) { return b != 0; })) {
        dirty.Mark(off, len);
      }
    }
  };
  for (SnapshotId id = oldest;;) {
    const ProcessNodeState& ns = tree.nodes[id].procs[proc_index];
    apply(ns.stack, stack_dirty_, stack_mem_);
    apply(ns.heap, heap_dirty_, heap_mem_);
    apply(ns.tls, tls_dirty_, tls_mem_);
    if (id == target) break;
    // Step one node toward the target: the child of `id` on its path.
    SnapshotId next = target;
    while (tree.nodes[next].parent != id) next = tree.nodes[next].parent;
    id = next;
  }
  for (auto [dirty, mem] : {std::pair{&stack_dirty_, &stack_mem_},
                            std::pair{&heap_dirty_, &heap_mem_},
                            std::pair{&tls_dirty_, &tls_mem_}}) {
    dirty->Enable(mem->size());
    dirty->ClearAll();  // Enable keeps stale marks; the copy covered them
  }
}

void Process::CaptureNode(ProcessNodeState* out, bool full) {
  CaptureCore(&out->core);
  out->stack_bytes = stack_mem_.size();
  out->heap_bytes = heap_mem_.size();
  out->tls_bytes = tls_mem_.size();
  out->full = full || !dirty_tracking_enabled();
  auto capture = [&](const DirtyMap& dirty, const Segment& mem) {
    return out->full ? CaptureAllPages(mem.data(), mem.size())
                     : CaptureDirtyPages(dirty, mem.data(), mem.size());
  };
  out->stack = capture(stack_dirty_, stack_mem_);
  out->heap = capture(heap_dirty_, heap_mem_);
  out->tls = capture(tls_dirty_, tls_mem_);
  // Start the next capture window: the node owns everything up to here.
  stack_dirty_.Enable(stack_mem_.size());
  heap_dirty_.Enable(heap_mem_.size());
  tls_dirty_.Enable(tls_mem_.size());
  stack_dirty_.ClearAll();
  heap_dirty_.ClearAll();
  tls_dirty_.ClearAll();
}

void Process::RestoreFromTree(const SnapshotTree& tree, SnapshotId target,
                              size_t proc_index,
                              const std::vector<SnapshotId>& path,
                              SnapshotRestoreStats* stats,
                              std::vector<uint32_t>* scratch) {
  const ProcessNodeState& tps = tree.nodes[target].procs[proc_index];
  assert(tps.stack_bytes == stack_mem_.size() &&
         tps.heap_bytes == heap_mem_.size() &&
         tps.tls_bytes == tls_mem_.size() && dirty_tracking_enabled() &&
         "in-place tree restore requires aligned, journaled segments");
  RestoreCore(tps.core);
  auto segment = [&](DirtyMap& dirty, Segment& mem,
                     const PageDelta ProcessNodeState::*sel) {
    // Pages that can differ from the target: written since the machine's
    // current node (journal), or captured by any node on the tree path
    // between current and target.
    std::vector<uint32_t>& pages = *scratch;
    pages.clear();
    dirty.ForEachDirtyPage(
        [&](uint64_t p) { pages.push_back(static_cast<uint32_t>(p)); });
    for (SnapshotId id : path) {
      if (proc_index >= tree.nodes[id].procs.size()) continue;
      const PageDelta& d = tree.nodes[id].procs[proc_index].*sel;
      pages.insert(pages.end(), d.pages.begin(), d.pages.end());
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (uint32_t page : pages) {
      uint64_t off = uint64_t{page} << DirtyMap::kPageBits;
      if (off >= mem.size()) continue;
      const uint8_t* src = FindProcPage(tree, target, proc_index, sel, page,
                                        stats ? &stats->nodes_walked : nullptr);
      // No writer anywhere at-or-above the target: the page was untouched
      // at its capture point, i.e. still zero-filled from construction.
      uint64_t len = std::min(DirtyMap::kPageSize, mem.size() - off);
      if (src) {
        // The copy may bring bytes this buffer never held: record it in
        // the written set (the journal mark is cleared below).
        std::memcpy(mem.data() + off, src, len);
        dirty.Mark(off, len);
      } else {
        std::memset(mem.data() + off, 0, len);
      }
      if (stats) ++stats->pages_restored;
    }
    dirty.ClearAll();
  };
  segment(stack_dirty_, stack_mem_, &ProcessNodeState::stack);
  segment(heap_dirty_, heap_mem_, &ProcessNodeState::heap);
  segment(tls_dirty_, tls_mem_, &ProcessNodeState::tls);
}

// -- NativeFrame --------------------------------------------------------------

int64_t NativeFrame::arg(int i) const {
  // At stub entry no return address has been pushed: arg i sits at SP + 8i.
  uint64_t sp = static_cast<uint64_t>(proc_.reg(Reg::SP));
  uint64_t addr = sp + 8 * static_cast<uint64_t>(i);
  uint64_t raw = 0;
  if (!proc_.read_mem(addr, &raw, 8)) {
    // A stub reading an argument off an unmapped stack is a wild SP —
    // surface the fault instead of silently handing the stub a 0.
    proc_.Fault(Signal::Segv,
                Format("bad stack read for arg %d of %s at %llx", i,
                       symbol_.c_str(), (unsigned long long)addr));
    return 0;
  }
  return static_cast<int64_t>(raw);
}

bool NativeFrame::set_arg(int i, int64_t v) {
  uint64_t sp = static_cast<uint64_t>(proc_.reg(Reg::SP));
  uint64_t raw = static_cast<uint64_t>(v);
  return proc_.write_mem(sp + 8 * static_cast<uint64_t>(i), &raw, 8);
}

std::vector<std::pair<uint64_t, std::string>> NativeFrame::backtrace() const {
  // Innermost first: the call site that reached the stub, then its callers.
  std::vector<std::pair<uint64_t, std::string>> out;
  for (auto it = proc_.shadow_.rbegin(); it != proc_.shadow_.rend(); ++it) {
    std::string sym = proc_.loader_.Symbolize(it->fn_addr);
    // Strip any "+0x..." suffix: frames name the enclosing function.
    size_t plus = sym.find('+');
    if (plus != std::string::npos) sym.resize(plus);
    out.emplace_back(it->ret_addr, sym);
  }
  return out;
}

// -- interpreter ---------------------------------------------------------------

void Process::DispatchCall(Target target, uint64_t ret_addr,
                           const std::string& symbol) {
  switch (target.kind) {
    case Target::Kind::Unresolved:
      Fault(Signal::Ill, "unresolved symbol: " + symbol);
      return;
    case Target::Kind::Code:
      if (!Push(static_cast<int64_t>(ret_addr))) return;
      shadow_.push_back(Frame{target.addr, ret_addr});
      pc_ = target.addr;
      return;
    case Target::Kind::Native:
      ExecNative(target.native_id, ret_addr);
      return;
  }
}

void Process::ExecNative(size_t native_id, uint64_t ret_addr) {
  // Chain through tail-calls between natives (rare but legal).
  for (int hops = 0; hops < 16; ++hops) {
    const NativeFn* fn = loader_.native(native_id);
    if (!fn || !*fn) {
      Fault(Signal::Ill, Format("bad native stub id %zu", native_id));
      return;
    }
    NativeFrame frame(*this, loader_.native_name(native_id));
    NativeAction action = (*fn)(frame);
    if (state_ != ProcState::Runnable) return;  // stub faulted/exited us
    if (action.kind == NativeAction::Kind::Return) {
      regs_[static_cast<size_t>(Reg::R0)] = action.value;
      pc_ = ret_addr;
      return;
    }
    // Tail call: the original's RET must return straight to the app caller,
    // so we push the app return address, not a stub frame (§5.1's jmp trick).
    if (IsNativeStubAddress(action.target)) {
      native_id = NativeStubIndex(action.target);
      continue;
    }
    if (!Push(static_cast<int64_t>(ret_addr))) return;
    shadow_.push_back(Frame{action.target, ret_addr});
    pc_ = action.target;
    return;
  }
  Fault(Signal::Ill, "native tail-call chain too deep");
}

uint64_t Process::Run(uint64_t budget) {
  switch (exec_mode_) {
    case ExecMode::Reference: {
      uint64_t executed = 0;
      while (state_ == ProcState::Runnable && executed < budget) {
        Step();
        ++executed;
      }
      return executed;
    }
    case ExecMode::Superblock:
      break;
  }
  return RunSuperblock(budget);
}

uint64_t Process::StateDigest() const {
  uint64_t h = kDigestBasis;
  DigestMix(h, static_cast<uint64_t>(pid_));
  for (int64_t r : regs_) DigestMix(h, static_cast<uint64_t>(r));
  DigestMix(h, static_cast<uint64_t>(flags_));
  DigestMix(h, pc_);
  DigestMix(h, static_cast<uint64_t>(state_));
  DigestMix(h, static_cast<uint64_t>(signal_));
  DigestMix(h, static_cast<uint64_t>(exit_code_));
  DigestMix(h, heap_cursor_);
  DigestMix(h, shadow_.size());
  for (const Frame& f : shadow_) {
    DigestMix(h, f.fn_addr);
    DigestMix(h, f.ret_addr);
  }
  DigestMixBytes(h, stack_mem_.data(), stack_mem_.size());
  DigestMixBytes(h, heap_mem_.data(), heap_mem_.size());
  DigestMixBytes(h, tls_mem_.data(), tls_mem_.size());
  return h;
}

void Process::RemapIfNeeded() {
  if (mapped_generation_ == loader_.module_generation()) return;
  // (Re)build the address space: shared module images + private segments.
  // Writable regions carry their segment's dirty journal so writes through
  // the AddressSpace fallback (kernel, native stubs, reference engine) are
  // seen by snapshot restores too.
  space_ = AddressSpace();
  for (const auto& mod : loader_.modules()) {
    space_.map(Region{mod->code_base, mod->object.code.size(),
                      const_cast<uint8_t*>(mod->object.code.data()), false,
                      nullptr});
    if (!mod->data_runtime.empty()) {
      space_.map(Region{mod->data_base, mod->data_runtime.size(),
                        mod->data_runtime.data(), true, &mod->data_dirty});
    }
  }
  space_.map(Region{kStackBase, stack_mem_.size(), stack_mem_.data(), true,
                    &stack_dirty_});
  if (!heap_mem_.empty()) {
    space_.map(Region{kHeapBase, heap_mem_.size(), heap_mem_.data(), true,
                      &heap_dirty_});
  }
  space_.map(
      Region{kTlsBase, tls_mem_.size(), tls_mem_.data(), true, &tls_dirty_});
  mapped_generation_ = loader_.module_generation();
  ++address_space_builds_;
}

void Process::Step() {
  if (state_ != ProcState::Runnable) return;
  RemapIfNeeded();

  const LoadedModule* mod = loader_.module_at(pc_);
  if (!mod) {
    Fault(Signal::Segv, Format("pc outside code: %llx", (unsigned long long)pc_));
    return;
  }
  uint32_t offset = static_cast<uint32_t>(pc_ - mod->code_base);
  auto decoded = isa::DecodeOne(mod->object.code, offset);
  if (!decoded.ok()) {
    Fault(Signal::Ill, decoded.error());
    return;
  }
  ExecuteInstr<false>(decoded.value(), *mod);
}

template <bool kFast>
void Process::ExecuteInstr(const isa::Instr& ins, const LoadedModule& mod) {
  if (coverage_) coverage_->Record(mod.index, ins.offset);
  ++instructions_;
  uint64_t next_pc = pc_ + ins.size;

  auto R = [&](Reg r) -> int64_t& { return regs_[static_cast<size_t>(r)]; };
  auto mem_fault = [&](uint64_t addr) {
    Fault(Signal::Segv,
          Format("bad memory access at %llx (pc=%llx)",
                 (unsigned long long)addr, (unsigned long long)pc_));
  };

  // One-instruction expansion of the shared semantics: sequential and
  // jumping completions both just commit next_pc below.
  switch (ins.op) {
#define LFI_CASE(name) case Opcode::name:
#define LFI_NEXT break
#define LFI_JUMP(target) { next_pc = (target); break; }
#define LFI_BRANCH() LFI_JUMP(mod.code_base + ins.rel_target())
#define LFI_STOP return
#define LFI_SYNC_PC() ((void)0)  // pc_ is already exact per-step
#define LFI_SYNC_COUNT() ((void)0)  // and so is instructions_
#include "vm/exec_ops.inc"
#undef LFI_CASE
#undef LFI_NEXT
#undef LFI_JUMP
#undef LFI_BRANCH
#undef LFI_STOP
#undef LFI_SYNC_PC
#undef LFI_SYNC_COUNT
  }
  pc_ = next_pc;
}

// Opcode names in exact isa::Opcode declaration order, for the computed-goto
// dispatch table (static_assert'd against kCount below).
#define LFI_OPCODE_LIST(X)                                                 \
  X(NOP) X(HALT) X(ABORT)                                                  \
  X(MOV_RI) X(MOV_RR) X(LOAD) X(STORE) X(STORE_I)                          \
  X(LEA) X(LEA_DATA) X(LEA_TLS)                                            \
  X(PUSH) X(POP)                                                           \
  X(ADD_RR) X(SUB_RR) X(AND_RR) X(OR_RR) X(XOR_RR) X(MUL_RR)               \
  X(ADD_RI) X(SUB_RI) X(AND_RI) X(OR_RI) X(XOR_RI) X(MUL_RI)               \
  X(NEG) X(NOT)                                                            \
  X(CMP_RR) X(CMP_RI)                                                      \
  X(JMP) X(JE) X(JNE) X(JLT) X(JLE) X(JGT) X(JGE) X(JMP_IND)               \
  X(CALL) X(CALL_SYM) X(CALL_IND) X(RET)                                   \
  X(SYSCALL) X(KCALL) X(kCount)

uint64_t Process::ExecSpanFused(const CodeCache::ModuleStream& stream_in,
                                uint32_t slot, uint64_t budget,
                                const LoadedModule& mod_in) {
  // The superblock engine's inner loop: execute predecoded instructions
  // back-to-back while control stays inside the loader's decoded streams.
  // The program counter is implicit in the slot pointer `ip` (pc ==
  // code_base + ip->offset), so a sequential step is one pointer bump and
  // one indirect jump; the member pc_ is only materialized on demand via
  // LFI_SYNC_PC() by the bodies that can observe it — faults, call
  // dispatch, kernel entry (fault messages, the shadow stack, and KCALL
  // retry semantics depend on it). A taken branch, call, syscall, or
  // return whose target starts an instruction in ANY loaded module's
  // stream continues IN-LOOP: the finished contiguous segment is settled
  // inline (one local add + one masked coverage OR, bit-identical to
  // per-instruction Record()/increment), the module binding is switched
  // if control crossed modules, and execution resumes at the target slot
  // without returning to the outer engine loop. pc_ and instructions_ are
  // exact again on every return path, and instructions_ also at every
  // native call-out (LFI_SYNC_COUNT()).
  //
  // Returns how many instructions ran (>= 1; at most `budget`). A
  // faulting, blocking, or exiting instruction counts as executed,
  // exactly as the per-step engines count it. Exits only on a state
  // change, control leaving decoded code (a native stub, an unresolved
  // or interposed call, a mid-instruction target), or budget exhaustion.
  constexpr bool kFast = true;
  // Module binding, rebindable in-loop: when control transfers to another
  // module whose stream holds the target (SYSCALL into the kernel module,
  // RET back out, a resolved cross-module CALL_SYM), the loop settles the
  // finished segment and rebinds instead of returning. Safe because the
  // module set cannot change between fused instructions — Load, like every
  // resolution-changing path (RegisterNative, controller interposition),
  // runs through DispatchCall/ExecNative or outside Run(), and those
  // bodies LFI_STOP.
  const LoadedModule* modp = nullptr;
  const CodeCache::ModuleStream* streamp = nullptr;
  const isa::Instr* sbase = nullptr;
  const isa::Instr* send = nullptr;
  uint64_t code_base = 0;
  uint64_t code_size = 0;
  // Coverage target of the bound module: its bitmap's own words, which
  // cover the whole text, so a segment ORs in place; nullptr when
  // coverage is off. The tracker cannot resize mid-span for the same
  // reason the module set cannot change.
  uint64_t* cov_words = nullptr;
  const uint64_t* start_words = nullptr;
  auto bind = [&](const LoadedModule* m, const CodeCache::ModuleStream* st) {
    modp = m;
    streamp = st;
    sbase = st->instrs.data();
    send = sbase + st->instrs.size();
    code_base = m->code_base;
    code_size = m->object.code.size();
    cov_words = coverage_ != nullptr
                    ? coverage_->covering_words(m->index, code_size)
                    : nullptr;
    start_words = st->start_bits.data();
  };
  bind(&mod_in, &stream_in);
  const isa::Instr* ip = sbase + slot;  // pc_ == code_base + ip->offset
  const isa::Instr* seg_start = ip;  // first instr of the current segment
  const isa::Instr* end = nullptr;   // segment bound, set by lfi_enter
  uint64_t executed = 0;
  uint64_t jump_pc = 0;       // LFI_JUMP's target, read at lfi_chase
  uint32_t target_slot = slot;  // where lfi_enter opens the next segment
  // instructions_ is committed once per span, on exit; LFI_SYNC_COUNT()
  // makes it exact mid-span for the native call-outs that read it.
  const uint64_t instructions_base = instructions_;
  // The CMP flag lives in a local for the duration of the span (CMP/Jcc
  // are pure register traffic here) and is committed on every exit.
  // Nothing outside the loop reads flags_ mid-span: the only other
  // accessors are snapshot capture/restore, which run between Run calls.
  int flags = flags_;
  auto commit = [&] {
    flags_ = flags;
    instructions_ = instructions_base + executed;
  };

  int64_t* const regs = regs_;
  auto R = [regs](Reg r) -> int64_t& { return regs[static_cast<size_t>(r)]; };
  auto mem_fault = [&](uint64_t addr) {
    Fault(Signal::Segv,
          Format("bad memory access at %llx (pc=%llx)",
                 (unsigned long long)addr, (unsigned long long)pc_));
  };
  // Settle the open segment [seg_start, last]: its instruction count and
  // its coverage, one masked OR when the segment sits in one bitmap word.
  // Segments are contiguous in offset order, which is what makes the
  // masked OR equal per-instruction recording. Must run BEFORE any rebind
  // — the segment belongs to the module it executed in. A macro rather
  // than a lambda so it stays inline at every settle site.
#define LFI_SETTLE(last)                                                   \
  do {                                                                     \
    executed += static_cast<uint64_t>((last) - seg_start) + 1;            \
    if (cov_words != nullptr) {                                            \
      OrSpanBits(cov_words, start_words, seg_start->offset, (last)->offset); \
    }                                                                      \
  } while (0)

  // Direct-threaded dispatch (labels-as-values).
  static const void* const kDispatch[] = {
#define LFI_LABEL_ADDR(name) &&op_##name,
      LFI_OPCODE_LIST(LFI_LABEL_ADDR)
#undef LFI_LABEL_ADDR
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                    static_cast<size_t>(Opcode::kCount) + 1,
                "dispatch table out of sync with isa::Opcode");
#define LFI_SPAN_DISPATCH() goto* kDispatch[static_cast<size_t>(ip->op)]
#define LFI_CASE(name) op_##name:
  // Sequential completion: advance a slot and dispatch in place. Slot i+1
  // always holds slot i's fall-through, so the pc needs no upkeep here.
#define LFI_NEXT                                                           \
  do {                                                                     \
    if (++ip == end) goto lfi_end;                                         \
    LFI_SPAN_DISPATCH();                                                   \
  } while (0)
#define LFI_JUMP(target) { jump_pc = (target); goto lfi_ctrl; }
#define LFI_BRANCH() goto lfi_direct
#define LFI_STOP goto lfi_stop
#define LFI_SYNC_PC() (pc_ = code_base + ip->offset)
#define LFI_SYNC_COUNT() \
  (instructions_ = instructions_base + executed + (ip - seg_start) + 1)
#define ins (*ip)
#define mod (*modp)
#define next_pc (code_base + ip->offset + ip->size)
  // Redirect the bodies' flags_ accesses to the span-local copy; every
  // return path below runs commit() first.
#define flags_ flags

lfi_enter:
  // Open a segment at target_slot, bounded by the stream end and the
  // remaining budget.
  {
    ip = sbase + target_slot;
    seg_start = ip;
    uint64_t room = budget - executed;
    uint64_t avail = static_cast<uint64_t>(send - ip);
    end = ip + (room < avail ? room : avail);
  }
  LFI_SPAN_DISPATCH();

lfi_direct:
  // A direct branch or call ended the segment: settle it and continue at
  // the target slot the code cache stored in its imm. Targets without one
  // (outside this module's decoded text) and quantum expiry take the
  // general path.
  LFI_SETTLE(ip);
  target_slot = static_cast<uint32_t>(ip->imm);
  if (target_slot != CodeCache::kNoSlot && executed < budget) goto lfi_enter;
  jump_pc = code_base + ip->rel_target();
  goto lfi_chase;

lfi_ctrl:
  // A control transfer ended the segment: settle it, then chase jump_pc
  // in-loop, rebinding the module binding when control crossed into
  // another stream.
  LFI_SETTLE(ip);
lfi_chase:
  if (jump_pc - code_base >= code_size) {
    // Crossed out of this module (syscall into the kernel module, a
    // cross-module call or return): rebind and keep going if the target's
    // module has a stream.
    const LoadedModule* nm = loader_.module_at(jump_pc);
    const CodeCache::ModuleStream* ns =
        nm != nullptr ? loader_.code_cache().stream(nm->index) : nullptr;
    if (ns == nullptr) {
      // Outside all code / no stream: the outer loop faults or falls back
      // exactly like the reference engine.
      commit();
      pc_ = jump_pc;
      return executed;
    }
    bind(nm, ns);
  }
  target_slot = streamp->slot_of_offset[jump_pc - code_base];
  if (target_slot != CodeCache::kNoSlot && executed < budget) goto lfi_enter;
  // Mid-instruction target (DecodeOne fallback) or quantum expiry: hand
  // back to the outer loop with pc_ exact.
  commit();
  pc_ = jump_pc;
  return executed;

lfi_end:
  // A sequential run hit the budget or the stream end: ip is one past the
  // last executed slot.
  LFI_SETTLE(ip - 1);
  commit();
  pc_ = code_base + (ip - 1)->offset + (ip - 1)->size;
  return executed;

lfi_stop:
  // The body finalized pc/state itself (fault, exit, call dispatch, block)
  // after re-materializing pc_ via LFI_SYNC_PC().
  LFI_SETTLE(ip);
  commit();
  return executed;

#include "vm/exec_ops.inc"

#undef flags_
#undef next_pc
#undef mod
#undef ins
#undef LFI_CASE
#undef LFI_NEXT
#undef LFI_JUMP
#undef LFI_BRANCH
#undef LFI_STOP
#undef LFI_SYNC_PC
#undef LFI_SYNC_COUNT
#undef LFI_SETTLE
#undef LFI_SPAN_DISPATCH
}

uint64_t Process::RunSuperblock(uint64_t budget) {
  uint64_t executed = 0;
  // Cached binding of the module containing pc: invalidated when pc leaves
  // the module's text or the module set changes (new modules may
  // reallocate the code-cache stream table). Stub installs leave it be:
  // they change resolution, not modules.
  const LoadedModule* mod = nullptr;
  const CodeCache::ModuleStream* stream = nullptr;
  uint64_t code_base = 0;
  uint64_t code_size = 0;
  while (state_ == ProcState::Runnable && executed < budget) {
    if (mapped_generation_ != loader_.module_generation()) {
      RemapIfNeeded();
      mod = nullptr;
    }
    uint64_t off = pc_ - code_base;
    if (mod == nullptr || off >= code_size) {
      mod = loader_.module_at(pc_);
      if (mod == nullptr) {
        Fault(Signal::Segv,
              Format("pc outside code: %llx", (unsigned long long)pc_));
        ++executed;
        break;
      }
      stream = loader_.code_cache().stream(mod->index);
      code_base = mod->code_base;
      code_size = mod->object.code.size();
      off = pc_ - code_base;
    }
    uint32_t slot = stream != nullptr
                        ? stream->slot_of_offset[static_cast<size_t>(off)]
                        : CodeCache::kNoSlot;
    if (slot == CodeCache::kNoSlot) {
      // Mid-instruction or undecodable pc: run the reference decoder so
      // the outcome (including the exact fault message) matches the
      // decode-per-step path bit for bit.
      auto decoded = isa::DecodeOne(mod->object.code,
                                    static_cast<uint32_t>(off));
      if (!decoded.ok()) {
        Fault(Signal::Ill, decoded.error());
        ++executed;
        break;
      }
      ExecuteInstr<true>(decoded.value(), *mod);
      ++executed;
      continue;
    }
    // Fused run: free-run from this slot, following control flow in-loop
    // across all decoded streams. Slot i+1 always holds the fall-through
    // instruction, and branches/calls/returns whose target has a slot (in
    // this module or another) continue inside ExecSpanFused, which also
    // settles instruction-count and coverage accounting per contiguous
    // segment.
    // Control comes back here only on a state change, control leaving
    // decoded code, or budget exhaustion — the budget cap is what
    // re-materializes exact per-instruction counters at quantum expiry
    // and snapshot windows.
    executed += ExecSpanFused(*stream, slot, budget - executed, *mod);
  }
  return executed;
}

}  // namespace lfi::vm
