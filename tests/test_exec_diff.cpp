// Differential tests of the execution engines beyond whole campaigns: the
// superblock engine (ExecMode::Superblock) must behave bit-identically to
// the reference decode-per-step path (ExecMode::Reference), the semantic
// oracle.
//
//   - a snapshot taken mid-segment (the warmup's last instruction falls
//     through) restores the exact instruction counter and coverage;
//   - code-cache lifecycle: the decoded streams survive interposition
//     reinstall, Machine::Reset, and post-run module loads.
//
// Whole db-suite, Pidgin and reader campaigns and explorations (fork
// windows included) on both engines are test_matrix's rows, which compare
// instruction counts, first-injection instants, coverage, replays and
// crash hashes; synthetic-program fuzzing lives in test_superblock.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "libc/libc_builder.hpp"
#include "test_helpers.hpp"
#include "vm/machine.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;

/// Everything an engine run can observably produce.
struct ExecOutcome {
  vm::ProcState state = vm::ProcState::Exited;
  int64_t exit_code = 0;
  vm::Signal signal = vm::Signal::None;
  std::string fault_message;
  uint64_t total_instructions = 0;
  uint64_t proc_instructions = 0;
  std::vector<std::vector<uint32_t>> coverage;  // per module index
};

void ExpectIdentical(const ExecOutcome& fast, const ExecOutcome& ref) {
  EXPECT_EQ(fast.state, ref.state);
  EXPECT_EQ(fast.exit_code, ref.exit_code);
  EXPECT_EQ(fast.signal, ref.signal);
  EXPECT_EQ(fast.fault_message, ref.fault_message);
  EXPECT_EQ(fast.total_instructions, ref.total_instructions);
  EXPECT_EQ(fast.proc_instructions, ref.proc_instructions);
  EXPECT_EQ(fast.coverage, ref.coverage);
}

// ---- snapshot taken mid-segment ---------------------------------------------

/// True when `prev`, executed at `before`, completed by falling through
/// to `after`: the superblock engine's LFI_NEXT, which keeps the open
/// segment going (ALU and memory ops, an untaken Jcc, a returning KCALL, a
/// SYSCALL with no handler). Anything that transfers control — a taken
/// branch, a call (its return comes back through RET), a return, a
/// syscall into its handler — opens a new segment at its target, even
/// when that target is the next slot.
bool FellThrough(const isa::Instr& prev, uint64_t before, uint64_t after) {
  if (after != before + prev.size) return false;
  if (prev.is_call()) return false;
  if (prev.is_cond_branch()) return prev.rel_target() != prev.offset + prev.size;
  return !prev.is_terminator();
}

/// The smallest warmup n >= `at_least` whose n-th instruction falls
/// through into the next one, so Run(n) stops the superblock engine
/// inside a fused segment: the "counter re-materialized mid-segment" case
/// it must get right. Found by single-stepping a twin machine (execution
/// is deterministic); 0 when no such n lies within 16 more steps.
uint64_t MidSegmentWarmup(vm::ExecMode mode, uint64_t at_least) {
  vm::Machine twin;
  twin.SetExecMode(mode);
  apps::DbSuiteMachineSetup()(twin);
  auto pid = twin.CreateProcess(apps::kDbTestEntry);
  if (!pid.ok()) return 0;
  vm::Process* proc = twin.process(pid.value());
  uint64_t n = proc->Run(at_least - 1);
  for (int i = 0; i < 16 && proc->state() == vm::ProcState::Runnable; ++i) {
    uint64_t before = proc->pc();
    const vm::LoadedModule* mod = twin.loader().module_at(before);
    if (mod == nullptr) return 0;
    auto prev = isa::DecodeOne(mod->object.code,
                               static_cast<uint32_t>(before - mod->code_base));
    if (!prev.ok()) return 0;
    n += proc->Run(1);
    if (proc->state() == vm::ProcState::Runnable &&
        FellThrough(prev.value(), before, proc->pc())) {
      return n;
    }
  }
  return 0;
}

struct SnapOutcome {
  uint64_t warm_instructions = 0;
  uint64_t warm_pc = 0;
  ExecOutcome cold;      // snapshot point -> completion, first pass
  ExecOutcome restored;  // restore -> completion, second pass
};

SnapOutcome RunSnapshotRoundTrip(vm::ExecMode mode) {
  vm::Machine machine;
  machine.SetExecMode(mode);
  apps::DbSuiteMachineSetup()(machine);
  vm::CoverageTracker* cov = machine.EnableCoverage();
  SnapOutcome out;
  auto pid = machine.CreateProcess(apps::kDbTestEntry);
  EXPECT_TRUE(pid.ok());
  if (!pid.ok()) return out;
  vm::Process* proc = machine.process(pid.value());
  uint64_t target = MidSegmentWarmup(mode, 1237);
  EXPECT_NE(target, 0u);
  uint64_t warm = proc->Run(target);
  EXPECT_EQ(warm, target);
  EXPECT_EQ(proc->state(), vm::ProcState::Runnable);
  out.warm_instructions = warm;
  out.warm_pc = proc->pc();
  machine.Snapshot();

  auto capture = [&]() {
    ExecOutcome o;
    auto info = machine.RunToCompletion(pid.value(), 50'000'000);
    o.state = info.state;
    o.exit_code = info.exit_code;
    o.signal = info.signal;
    o.fault_message = info.fault_message;
    o.total_instructions = machine.total_instructions();
    o.proc_instructions = machine.process(pid.value())->instructions();
    for (size_t m = 0; m < cov->module_count(); ++m) {
      o.coverage.push_back(cov->executed(m).ToOffsets());
    }
    return o;
  };
  out.cold = capture();
  EXPECT_TRUE(machine.RestoreSnapshot());
  // The restore must land on the exact mid-span instruction counter and
  // pc, with coverage rolled back to the snapshot's bitmaps.
  EXPECT_EQ(machine.process(pid.value())->instructions(), warm);
  EXPECT_EQ(machine.process(pid.value())->pc(), out.warm_pc);
  out.restored = capture();
  return out;
}

TEST(SuperblockSnapshot, MidSuperblockRoundTripIdenticalAcrossEngines) {
  SnapOutcome ref = RunSnapshotRoundTrip(vm::ExecMode::Reference);
  ExpectIdentical(ref.restored, ref.cold);
  SnapOutcome fast = RunSnapshotRoundTrip(vm::ExecMode::Superblock);
  // Replaying from the restore point reproduces the first pass exactly...
  ExpectIdentical(fast.restored, fast.cold);
  // ...and the whole trajectory matches the reference engine.
  EXPECT_EQ(fast.warm_instructions, ref.warm_instructions);
  EXPECT_EQ(fast.warm_pc, ref.warm_pc);
  ExpectIdentical(fast.cold, ref.cold);
}

// ---- code-cache lifecycle ----------------------------------------------------

sso::SharedObject TwiceApp() {
  CodeBuilder b;
  b.begin_function("twice");
  b.mov_ri(Reg::R0, 7);
  b.leave_ret();
  b.end_function();
  b.begin_function("main");
  b.call_sym("twice");  // through the PLT: interposable
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("app.so", b.Finish());
}

TEST(CodeCache, SurvivesReinstallAndReset) {
  vm::Machine machine;
  machine.SetExecMode(vm::ExecMode::Superblock);
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwiceApp()).value();

  EXPECT_EQ(test::RunEntry(machine, "main").exit_code, 7);

  // Interposition reinstall bumps the loader generation: resolution must
  // change while the decoded streams stay valid.
  machine.loader().RegisterNative(
      "twice", [](vm::NativeFrame&) { return vm::NativeAction::Ret(99); });
  machine.Reset();
  EXPECT_EQ(test::RunEntry(machine, "main").exit_code, 99);

  // Uninstalling (ClearNatives) must re-resolve to the original again.
  machine.loader().ClearNatives();
  machine.Reset();
  EXPECT_EQ(test::RunEntry(machine, "main").exit_code, 7);

  // A module loaded after processes have run gets its stream on demand.
  CodeBuilder b2;
  b2.begin_function("entry2");
  b2.mov_ri(Reg::R0, 42);
  b2.leave_ret();
  b2.end_function();
  machine.Load(sso::FromCodeUnit("late.so", b2.Finish())).value();
  machine.Reset();
  EXPECT_EQ(test::RunEntry(machine, "entry2").exit_code, 42);

  // Stream invariants: every module has a stream whose slot<->offset maps
  // round-trip, whose start_bits hold exactly one bit per instruction
  // start, and whose direct branches and calls carry their target slot.
  const vm::Loader& loader = machine.loader();
  for (const auto& mod : loader.modules()) {
    const vm::CodeCache::ModuleStream* stream =
        loader.code_cache().stream(mod->index);
    ASSERT_NE(stream, nullptr) << mod->object.name;
    ASSERT_FALSE(stream->instrs.empty()) << mod->object.name;
    ASSERT_EQ(stream->slot_of_offset.size(), mod->object.code.size());
    size_t start_bits = 0;
    for (uint64_t w : stream->start_bits) start_bits += __builtin_popcountll(w);
    EXPECT_EQ(start_bits, stream->instrs.size());
    for (uint32_t slot = 0; slot < stream->instrs.size(); ++slot) {
      const isa::Instr& ins = stream->instrs[slot];
      EXPECT_EQ(stream->slot_of_offset[ins.offset], slot);
      EXPECT_TRUE((stream->start_bits[ins.offset >> 6] >> (ins.offset & 63)) & 1);
      if ((ins.is_branch() && ins.op != isa::Opcode::JMP_IND) ||
          ins.op == isa::Opcode::CALL) {
        uint32_t target = ins.rel_target();
        uint32_t want = target < stream->slot_of_offset.size()
                            ? stream->slot_of_offset[target]
                            : vm::CodeCache::kNoSlot;
        EXPECT_EQ(ins.imm, static_cast<int64_t>(want));
      }
    }
  }
}

}  // namespace
}  // namespace lfi
