// Process: one executing program — registers, stack/heap/TLS, the
// fetch-decode-execute loop, and the shadow call stack used for the
// stack-trace triggers of the scenario language (§4).
//
// Two execution engines share one instruction-semantics implementation
// (vm/exec_ops.inc, expanded per engine):
//   - Superblock (default): fused spans over the loader's CodeCache
//     streams — one computed-goto dispatch per instruction, guest memory
//     by inlined layout arithmetic, and coverage and instruction-count
//     accounting settled inline once per contiguous segment. The counter
//     is exact whenever a span ends (fault, kcall/native exit, quantum
//     expiry, snapshot windows) and at every native call-out.
//   - Reference: the original decode-per-step path (`Step()` +
//     AddressSpace lookups), kept as the semantic oracle so differential
//     tests and bench_interp_throughput can prove the superblock engine
//     bit-identical and measure its speedup.
// Kernel and stub memory access (read_mem/write_mem, NativeFrame args)
// and call-dispatch pushes take the layout-arithmetic path in both
// engines, with the AddressSpace deciding everything it does not cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hpp"
#include "kernel/kernel_runtime.hpp"
#include "vm/coverage.hpp"
#include "vm/loader.hpp"
#include "vm/memory.hpp"

namespace lfi::vm {

struct ProcessCore;
struct ProcessNodeState;
struct SnapshotTree;
struct SnapshotRestoreStats;

/// The FNV-1a state digests (Process/Machine::StateDigest) mix u64 values
/// and memory in u64-sized chunks (byte tail) — fast enough to hash whole
/// segments per scenario. Chunked mixing is endian-dependent, which is
/// fine: digests are only compared between runs on hosts of the same byte
/// order (the fabric ships work, not digests of reference).
inline constexpr uint64_t kDigestBasis = 14695981039346656037ull;
inline void DigestMix(uint64_t& h, uint64_t value) {
  h ^= value;
  h *= 1099511628211ull;
}
inline void DigestMixBytes(uint64_t& h, const uint8_t* data, size_t size) {
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data + i, 8);
    DigestMix(h, chunk);
  }
  uint64_t tail = 0;
  for (; i < size; ++i) tail = (tail << 8) | data[i];
  DigestMix(h, tail);
}

enum class ProcState { Runnable, Blocked, Exited, Faulted };

enum class Signal { None, Segv, Abort, Ill };

/// Which interpreter loop Run() uses. Both are bit-identical in behavior
/// (test-enforced); Reference exists as the differential baseline.
enum class ExecMode { Superblock, Reference };

/// The `--exec` name of an engine ("superblock" / "reference").
const char* ExecModeName(ExecMode mode);

/// Parse an `--exec` engine name; nullopt for unknown values.
std::optional<ExecMode> ParseExecMode(std::string_view name);

const char* SignalName(Signal s);

/// One shadow-stack entry: the function that was entered and where it will
/// return. Used to synthesize symbolized backtraces.
struct Frame {
  uint64_t fn_addr = 0;
  uint64_t ret_addr = 0;
};

class Process final : public kernel::KernelContext {
 public:
  Process(int pid, Loader& loader, kernel::KernelRuntime& kernel,
          const std::vector<uint64_t>& syscall_targets,
          uint64_t heap_cap_bytes);

  /// Return to the state of a process just constructed with `pid` and the
  /// same heap size: every written page is zeroed, the written sets and
  /// journals are cleared, and registers, status, counters and the shadow
  /// stack are reset. The segments, dirty maps, address space and shadow
  /// capacity are kept — this is how vm::Machine's process pool reuses a
  /// process for the next spawn or restore without allocating.
  void Recycle(int pid);

  /// Point the process at its entry and push the exit sentinel.
  void Start(uint64_t entry_addr);

  /// Execute one instruction (or one native stub invocation) on the
  /// reference decode-per-step path.
  void Step();

  /// Run until the process blocks, terminates, or `budget` instructions ran.
  /// Returns the number of instructions executed.
  uint64_t Run(uint64_t budget);

  // -- state ----------------------------------------------------------------
  ProcState state() const { return state_; }
  Signal signal() const { return signal_; }
  int64_t exit_code() const { return exit_code_; }
  const std::string& fault_message() const { return fault_message_; }
  uint64_t instructions() const { return instructions_; }
  uint64_t pc() const { return pc_; }
  /// Actual heap segment size (the construction-time cap, clamped to the
  /// heap band). Snapshot restore matches processes by pid + heap size.
  uint64_t heap_bytes() const { return heap_mem_.size(); }
  /// The heap segment size a process constructed with `heap_cap_bytes`
  /// gets: the heap band ends where TLS begins, and a larger cap would
  /// overlap the segments and break the layout arithmetic both engines
  /// (and AddressSpace resolution order) rely on.
  static uint64_t HeapBytesFor(uint64_t heap_cap_bytes) {
    return std::min(heap_cap_bytes, kTlsBase - kHeapBase);
  }
  const std::vector<Frame>& shadow_stack() const { return shadow_; }

  /// Wake a blocked process so the scheduler can retry its syscall.
  void WakeIfBlocked() {
    if (state_ == ProcState::Blocked) state_ = ProcState::Runnable;
  }

  void set_coverage(CoverageTracker* tracker) { coverage_ = tracker; }

  /// How many times this process (re)built its AddressSpace: once at
  /// construction, then only when the loaded module set changes.
  uint64_t address_space_builds() const { return address_space_builds_; }

  ExecMode exec_mode() const { return exec_mode_; }
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }

  /// FNV-1a digest of this process's architectural state: registers,
  /// flags, pc, status (state/signal/exit code), shadow stack, heap
  /// cursor, and the full stack/heap/TLS segments. Deliberately excludes
  /// the instruction counter — two runs that converge to the same
  /// architectural state along different-length paths digest equal (the
  /// SEU "masked" verdict is about state, not timing).
  uint64_t StateDigest() const;

  // -- KernelContext --------------------------------------------------------
  int64_t reg(isa::Reg r) const override {
    return regs_[static_cast<size_t>(r)];
  }
  void set_reg(isa::Reg r, int64_t v) override {
    regs_[static_cast<size_t>(r)] = v;
  }
  /// FastMemPtr first, then the AddressSpace, which decides the rest.
  bool read_mem(uint64_t addr, void* out, uint64_t len) override;
  bool write_mem(uint64_t addr, const void* src, uint64_t len) override;
  uint64_t alloc_heap(uint64_t size) override;
  int pid() const override { return pid_; }
  void request_exit(int64_t code) override {
    pending_exit_ = true;
    exit_code_ = code;
  }

  /// Absolute address of a module-relative TLS offset (errno injection).
  uint64_t tls_address(const LoadedModule& mod, uint32_t offset) const {
    return kTlsBase + mod.tls_base + offset;
  }

  Loader& loader() { return loader_; }
  const Loader& loader() const { return loader_; }

  // -- snapshot support ------------------------------------------------------
  /// Whether all three segment journals are live. A process spawned after
  /// the machine's last capture has no journals yet, so a tree node must
  /// capture it in full (no parent delta covers its pages).
  bool dirty_tracking_enabled() const {
    return stack_dirty_.enabled() && heap_dirty_.enabled() &&
           tls_dirty_.enabled();
  }

  // -- snapshot tree support -------------------------------------------------
  /// Capture one tree node's slice of this process: the scalar core in
  /// full, the segments as page deltas from the journals — or every page
  /// when `full` is set (the parent node lacks this process, or the
  /// journals were not live across the whole parent window). Clears the
  /// journals and (re)enables them, starting the next capture window.
  void CaptureNode(ProcessNodeState* out, bool full);
  /// In-place tree restore: bring this process to exactly
  /// `tree.nodes[target].procs[proc_index]`'s capture point. `path` lists
  /// the delta nodes between the machine's current node and the target
  /// (both sides of their common ancestor); pages in those deltas, plus
  /// this process's journal-dirty pages, are the only ones that can
  /// differ, and each is sourced from its newest writer at-or-above
  /// target. Clears the journals. Requires matching segment sizes and
  /// live journals (the machine falls back to MaterializeFromTree
  /// otherwise). `pages` is scratch storage, kept by the caller so warm
  /// restores allocate nothing.
  void RestoreFromTree(const SnapshotTree& tree, SnapshotId target,
                       size_t proc_index, const std::vector<SnapshotId>& path,
                       SnapshotRestoreStats* stats,
                       std::vector<uint32_t>* pages);
  /// Rebuild path: bring a freshly constructed (or Recycle()d) process
  /// with the node's segment sizes to `tree.nodes[target].procs
  /// [proc_index]`'s capture point by applying the deltas from the
  /// process's last full capture down to the target, oldest first, and
  /// start clean journals. For processes destroyed by Machine::Reset or
  /// truncated by an earlier restore.
  void MaterializeFromTree(const SnapshotTree& tree, SnapshotId target,
                           size_t proc_index);

 private:
  friend class NativeFrame;
  friend struct ProcessMemoryPeer;  // tests: the AddressSpace oracle

  void CaptureCore(ProcessCore* out) const;
  void RestoreCore(const ProcessCore& core);

  void Fault(Signal sig, std::string message);
  /// (Re)build the address space if the module set changed since the
  /// last map (stub installs do not count: stubs have no backing).
  void RemapIfNeeded();
  bool Push(int64_t v);
  /// Dispatch a resolved call target (shared by CALL_SYM / CALL_IND /
  /// SYSCALL). `ret_addr` is pushed for code targets; native stubs decide
  /// via their action.
  void DispatchCall(Target target, uint64_t ret_addr,
                    const std::string& symbol);
  void ExecNative(size_t native_id, uint64_t ret_addr);

  /// The superblock-span loop behind Run() in Superblock mode: binds the
  /// module containing pc and runs ExecSpanFused from its slot.
  uint64_t RunSuperblock(uint64_t budget);

  /// Execute up to `budget` decoded instructions starting at `slot` of
  /// `stream` (pc_ must be that slot's address) as fused computed-goto
  /// spans, following control flow in-loop: a taken branch, call,
  /// syscall, or return whose target has a slot in any loaded module's
  /// stream continues without returning, rebinding the module when
  /// control crosses streams. Instruction-count and coverage accounting
  /// are settled inline, once per contiguous segment. Returns the
  /// instructions executed (>= 1). Exits only on a state change, a
  /// target outside decoded code (native stub / unresolved or interposed
  /// call / mid-instruction), or budget exhaustion; pc_ and the counter
  /// are exact again on every return path.
  uint64_t ExecSpanFused(const CodeCache::ModuleStream& stream, uint32_t slot,
                         uint64_t budget, const LoadedModule& mod);

  /// Execute one already-decoded instruction: coverage, semantics, pc
  /// advance. `kFast` selects arithmetic memory access (with AddressSpace
  /// fallback) vs pure AddressSpace lookups — semantics are identical.
  template <bool kFast>
  void ExecuteInstr(const isa::Instr& ins, const LoadedModule& mod);

  /// Backing pointer for [addr, addr+len) by layout arithmetic, or nullptr
  /// when the range is outside stack/heap/TLS/module segments or in a
  /// module loaded since the last remap (callers fall back to
  /// AddressSpace, which reproduces the reference verdict).
  uint8_t* FastMemPtr(uint64_t addr, uint64_t len, bool for_write);
  /// FastMemPtr's module data/code leg, kept out of line.
  uint8_t* ModuleMemPtr(uint64_t addr, uint64_t len, bool for_write);

  template <bool kFast> bool ReadU64(uint64_t addr, uint64_t* out);
  template <bool kFast> bool WriteU64(uint64_t addr, uint64_t value);
  template <bool kFast> bool PushT(int64_t v);
  template <bool kFast> bool PopT(int64_t* v);

  int pid_;
  Loader& loader_;
  kernel::KernelRuntime& kernel_;
  const std::vector<uint64_t>& syscall_targets_;

  int64_t regs_[isa::kNumRegs] = {};
  int flags_ = 0;  // sign of last CMP: -1 / 0 / +1
  uint64_t pc_ = 0;
  ProcState state_ = ProcState::Runnable;
  Signal signal_ = Signal::None;
  int64_t exit_code_ = 0;
  bool pending_exit_ = false;
  std::string fault_message_;
  uint64_t instructions_ = 0;
  ExecMode exec_mode_ = ExecMode::Superblock;

  AddressSpace space_;
  Segment stack_mem_;
  Segment heap_mem_;
  Segment tls_mem_;
  /// Write tracking over the private segments: the written sets (live
  /// from construction; Recycle zeroes those pages)
  /// and the snapshot journals (inert until a machine snapshot enables
  /// them). Every write path marks: FastMemPtr directly,
  /// AddressSpace::write through the Region::dirty pointers wired in
  /// RemapIfNeeded, and the restore page copies.
  DirtyMap stack_dirty_;
  DirtyMap heap_dirty_;
  DirtyMap tls_dirty_;
  uint64_t heap_cursor_ = 0;
  uint64_t mapped_generation_ = 0;  // module generation at last (re)mapping
  uint64_t address_space_builds_ = 0;

  std::vector<Frame> shadow_;
  CoverageTracker* coverage_ = nullptr;
};

}  // namespace lfi::vm
