#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace lfi::vm {
namespace {

using isa::CodeBuilder;
using isa::Reg;

// ---- AddressSpace -------------------------------------------------------------

TEST(AddressSpace, RejectsOutOfRange) {
  std::vector<uint8_t> backing(64, 0);
  AddressSpace space;
  space.map(Region{0x1000, 64, backing.data(), true});
  uint64_t v = 0;
  EXPECT_FALSE(space.read_u64(0x0, &v));
  EXPECT_FALSE(space.read_u64(0x1000 + 60, &v));  // straddles the end
  EXPECT_FALSE(space.write_u64(0x2000, 1));
}

TEST(AddressSpace, RejectsWriteToReadOnly) {
  std::vector<uint8_t> backing(64, 0);
  AddressSpace space;
  space.map(Region{0x1000, 64, backing.data(), false});
  uint64_t v = 0;
  EXPECT_TRUE(space.read_u64(0x1000, &v));
  EXPECT_FALSE(space.write_u64(0x1000, 1));
}

// ---- basic execution ------------------------------------------------------------

/// Build a module with a single entry running `body`, then HALT-style exit.
template <typename Body>
sso::SharedObject OneFn(const std::string& entry, Body&& body) {
  CodeBuilder b;
  b.begin_function(entry);
  body(b);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("app.so", b.Finish());
}

int64_t RunAndGetExit(sso::SharedObject app, const std::string& entry) {
  test::RunResult r = test::RunProgram(std::move(app), entry);
  EXPECT_EQ(r.state, ProcState::Exited) << r.fault;
  return r.exit_code;
}

TEST(VmExec, ArithmeticChain) {
  auto app = OneFn("main", [](CodeBuilder& b) {
    b.mov_ri(Reg::R0, 10);
    b.add_ri(Reg::R0, 5);     // 15
    b.mul_ri(Reg::R0, 2);     // 30
    b.sub_ri(Reg::R0, 8);     // 22
    b.xor_ri(Reg::R0, 1);     // 23
    b.or_ri(Reg::R0, 8);      // 31
    b.and_ri(Reg::R0, 0x1f);  // 31
  });
  EXPECT_EQ(RunAndGetExit(std::move(app), "main"), 31);
}

TEST(VmExec, RegisterMoves) {
  auto app = OneFn("main", [](CodeBuilder& b) {
    b.mov_ri(Reg::R3, 7);
    b.mov_rr(Reg::R2, Reg::R3);
    b.neg(Reg::R2);
    b.not_(Reg::R2);  // -(-7)-1 = 6
    b.mov_rr(Reg::R0, Reg::R2);
  });
  EXPECT_EQ(RunAndGetExit(std::move(app), "main"), 6);
}

TEST(VmExec, ConditionalBranches) {
  // Compute sign(-5) via compares: expect -1.
  auto app = OneFn("main", [](CodeBuilder& b) {
    auto neg = b.new_label();
    auto done = b.new_label();
    b.mov_ri(Reg::R1, -5);
    b.cmp_ri(Reg::R1, 0);
    b.jlt(neg);
    b.mov_ri(Reg::R0, 1);
    b.jmp(done);
    b.bind(neg);
    b.mov_ri(Reg::R0, -1);
    b.bind(done);
  });
  EXPECT_EQ(RunAndGetExit(std::move(app), "main"), -1);
  // JLE branches on equality.
  auto le = OneFn("main", [](CodeBuilder& b) {
    auto taken = b.new_label();
    b.mov_ri(Reg::R0, 1);
    b.cmp_ri(Reg::R0, 1);
    b.jle(taken);
    b.mov_ri(Reg::R0, 2);
    b.bind(taken);
  });
  EXPECT_EQ(RunAndGetExit(std::move(le), "main"), 1);
}

TEST(VmExec, LoopSumsToN) {
  // sum 1..10 = 55.
  auto app = OneFn("main", [](CodeBuilder& b) {
    auto loop = b.new_label();
    auto done = b.new_label();
    b.mov_ri(Reg::R0, 0);
    b.mov_ri(Reg::R1, 1);
    b.bind(loop);
    b.cmp_ri(Reg::R1, 10);
    b.jgt(done);
    b.add_rr(Reg::R0, Reg::R1);
    b.add_ri(Reg::R1, 1);
    b.jmp(loop);
    b.bind(done);
  });
  EXPECT_EQ(RunAndGetExit(std::move(app), "main"), 55);
}

TEST(VmExec, LocalCallsWithArguments) {
  CodeBuilder b;
  // add2(a, b) = a + b
  b.begin_function("add2");
  b.load_arg(Reg::R1, 0);
  b.load_arg(Reg::R2, 1);
  b.mov_rr(Reg::R0, Reg::R1);
  b.add_rr(Reg::R0, Reg::R2);
  b.leave_ret();
  b.end_function();
  b.begin_function("main");
  b.mov_ri(Reg::R1, 40);
  b.mov_ri(Reg::R2, 2);
  b.call_named("add2", {Reg::R1, Reg::R2});
  b.leave_ret();
  b.end_function();
  EXPECT_EQ(RunAndGetExit(sso::FromCodeUnit("app.so", b.Finish()), "main"), 42);
}

// Each module has its own TLS block: a store to one module's slot leaves
// another module's slot at the same offset alone.
TEST(VmExec, TlsIsSeparatePerModule) {
  CodeBuilder lib;
  lib.reserve_tls(8);
  lib.begin_function("set_lib_tls");
  lib.mov_ri(Reg::R1, 5);
  lib.lea_tls(Reg::R2, 0);
  lib.store(Reg::R2, 0, Reg::R1);
  lib.leave_ret();
  lib.end_function();
  CodeBuilder app;
  app.reserve_tls(8);
  app.begin_function("main");
  app.call_sym("set_lib_tls");
  app.lea_tls(Reg::R2, 0);
  app.load(Reg::R0, Reg::R2, 0);
  app.leave_ret();
  app.end_function();
  Machine machine;
  machine.Load(sso::FromCodeUnit("lib.so", lib.Finish())).value();
  machine.Load(sso::FromCodeUnit("app.so", app.Finish(), {"lib.so"})).value();
  EXPECT_EQ(test::RunEntry(machine, "main").exit_code, 0);
}

TEST(VmExec, IndirectCallThroughDataPointer) {
  CodeBuilder b;
  b.begin_function("target", true, true);
  b.mov_ri(Reg::R0, 77);
  b.ret();
  b.end_function();
  uint32_t slot = b.reserve_code_pointer(0);
  b.begin_function("main");
  b.lea_data(Reg::R1, static_cast<int32_t>(slot));
  b.load(Reg::R1, Reg::R1, 0);
  b.call_ind(Reg::R1);
  b.leave_ret();
  b.end_function();
  EXPECT_EQ(RunAndGetExit(sso::FromCodeUnit("app.so", b.Finish()), "main"), 77);
}

// ---- faults ----------------------------------------------------------------------

TEST(VmFaults, BadMemoryAccessIsSegv) {
  auto app = OneFn("main", [](CodeBuilder& b) {
    b.mov_ri(Reg::R1, 0x123);  // unmapped
    b.load(Reg::R0, Reg::R1, 0);
  });
  test::RunResult r = test::RunProgram(std::move(app), "main");
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Segv);
}

TEST(VmFaults, WriteToCodeIsSegv) {
  auto app = OneFn("main", [](CodeBuilder& b) {
    b.mov_ri(Reg::R1, static_cast<int64_t>(ModuleCodeBase(1)));
    b.store_i(Reg::R1, 0, 1);
  });
  test::RunResult r = test::RunProgram(std::move(app), "main");
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Segv);
}

TEST(VmFaults, AbortInstruction) {
  auto app = OneFn("main", [](CodeBuilder& b) { b.abort(); });
  test::RunResult r = test::RunProgram(std::move(app), "main");
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Abort);
}

TEST(VmFaults, UnresolvedImportIsIll) {
  auto app = OneFn("main", [](CodeBuilder& b) { b.call_sym("nonexistent"); });
  test::RunResult r = test::RunProgram(std::move(app), "main");
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Ill);
}

TEST(VmFaults, StackOverflowDetected) {
  CodeBuilder b;
  b.begin_function("main");
  auto loop = b.new_label();
  b.bind(loop);
  b.push(Reg::R0);
  b.jmp(loop);
  b.end_function();
  test::RunResult r =
      test::RunProgram(sso::FromCodeUnit("app.so", b.Finish()), "main");
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Segv);
}

// ---- loader & interposition --------------------------------------------------------

TEST(Loader, InterpositionDisableRestoresOriginal) {
  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.loader().RegisterNative("getpid", [](NativeFrame&) {
    return NativeAction::Ret(999);
  });
  machine.loader().SetInterpositionEnabled(false);
  CodeBuilder b;
  b.begin_function("main");
  b.call_named("getpid", {});
  b.leave_ret();
  b.end_function();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  test::RunResult r = test::RunEntry(machine, "main");
  EXPECT_EQ(r.exit_code, 1);
}

// Every load limit is a checked error, not an assert: an object beyond one
// is refused with CheckLimits' message and maps nothing, so a later load
// still gets the next module index.
TEST(Loader, RefusesObjectsBeyondTheLoadLimits) {
  auto base = [] {
    CodeBuilder b;
    b.reserve_data(16);
    b.begin_function("main");
    b.leave_ret();
    b.end_function();
    return sso::FromCodeUnit("app.so", b.Finish());
  };
  struct Case {
    const char* error;
    void (*corrupt)(sso::SharedObject&);
  };
  const Case cases[] = {
      {"sso: code section too big",
       [](sso::SharedObject& so) { so.code.resize(sso::kMaxCodeBytes + 1); }},
      {"sso: data section too big",
       [](sso::SharedObject& so) { so.data.resize(sso::kMaxDataBytes + 1); }},
      {"sso: TLS reservation too big",
       [](sso::SharedObject& so) { so.tls_size = sso::kMaxTlsBytes + 1; }},
      {"sso: reloc out of range",
       [](sso::SharedObject& so) { so.data_relocs.emplace_back(9, 0); }},
      {"sso: reloc out of range",
       [](sso::SharedObject& so) {
         so.data_relocs.emplace_back(0, static_cast<uint32_t>(so.code.size()));
       }},
      {"sso: symbol out of range: main",
       [](sso::SharedObject& so) {
         so.exports[0].offset = static_cast<uint32_t>(so.code.size() + 1);
       }},
  };
  for (const Case& c : cases) {
    Machine machine;
    const size_t modules = machine.loader().modules().size();
    sso::SharedObject bad = base();
    c.corrupt(bad);
    auto index = machine.Load(bad);
    ASSERT_FALSE(index.ok()) << c.error;
    EXPECT_EQ(index.error(), c.error);
    EXPECT_EQ(machine.loader().modules().size(), modules);
    EXPECT_EQ(machine.Load(base()).value(), modules);
  }
}

TEST(Loader, SymbolizeNamesFunctions) {
  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  Target read = machine.loader().ResolveNextName("read");
  EXPECT_EQ(machine.loader().Symbolize(read.addr), "read");
  EXPECT_EQ(machine.loader().Symbolize(read.addr + 3).substr(0, 5), "read+");
}

TEST(Loader, BacktraceReflectsCallChain) {
  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  std::vector<std::string> symbols;
  machine.loader().RegisterNative("probe", [&](NativeFrame& f) {
    for (const auto& [addr, sym] : f.backtrace()) symbols.push_back(sym);
    return NativeAction::Ret(0);
  });
  CodeBuilder b;
  b.begin_function("inner");
  b.call_named("probe", {});
  b.leave_ret();
  b.end_function();
  b.begin_function("main");
  b.call_named("inner", {});
  b.leave_ret();
  b.end_function();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish())).value();
  test::RunEntry(machine, "main");
  ASSERT_GE(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], "inner");
  EXPECT_EQ(symbols[1], "main");
}

// ---- scheduling -----------------------------------------------------------------

TEST(Machine, DetectsDeadlockOnSelfPipe) {
  // A process reading its own empty pipe (writer still open) can never be
  // satisfied: the machine reports deadlock rather than spinning.
  CodeBuilder b;
  uint32_t fds = b.reserve_data(16);
  b.begin_function("main");
  b.lea_data(Reg::R1, static_cast<int32_t>(fds));
  b.push(Reg::R1);
  b.call_sym("pipe");
  b.add_ri(Reg::SP, 8);
  b.lea_data(Reg::R1, static_cast<int32_t>(fds));
  b.load(Reg::R1, Reg::R1, 0);
  b.lea_data(Reg::R2, static_cast<int32_t>(fds));
  b.mov_ri(Reg::R3, 8);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("read");
  b.add_ri(Reg::SP, 24);
  b.leave_ret();
  b.end_function();

  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  ASSERT_TRUE(machine.CreateProcess("main").ok());
  EXPECT_EQ(machine.Run(10'000'000), RunOutcome::Deadlock);
}

TEST(Machine, BudgetExhaustionReported) {
  CodeBuilder b;
  b.begin_function("main");
  auto loop = b.new_label();
  b.bind(loop);
  b.add_ri(Reg::R1, 1);
  b.jmp(loop);
  b.end_function();
  Machine machine;
  machine.Load(sso::FromCodeUnit("app.so", b.Finish())).value();
  ASSERT_TRUE(machine.CreateProcess("main").ok());
  EXPECT_EQ(machine.Run(10'000), RunOutcome::BudgetSpent);
  EXPECT_GE(machine.total_instructions(), 10'000u);
}

// ---- coverage --------------------------------------------------------------------

TEST(Coverage, TracksExecutedOffsetsOnly) {
  CodeBuilder b;
  b.begin_function("main");
  auto skip = b.new_label();
  b.mov_ri(Reg::R1, 1);
  b.cmp_ri(Reg::R1, 1);
  b.je(skip);
  b.mov_ri(Reg::R0, 111);  // dead code under this input
  b.bind(skip);
  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();

  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  size_t app_idx = machine.Load(sso::FromCodeUnit("app.so", b.Finish())).value();
  CoverageTracker* tracker = machine.EnableCoverage();
  test::RunEntry(machine, "main");
  const CoverageBitmap& executed = tracker->executed(app_idx);
  EXPECT_GT(executed.Count(), 0u);
  // The dead MOV_RI 111 must not be covered.
  const auto& so = machine.loader().modules()[app_idx]->object;
  auto instrs = isa::Disassemble(so.code, 0, static_cast<uint32_t>(so.code.size()));
  ASSERT_TRUE(instrs.ok());
  for (const auto& ins : instrs.value()) {
    if (ins.op == isa::Opcode::MOV_RI && ins.imm == 111) {
      EXPECT_FALSE(tracker->was_executed(app_idx, ins.offset));
    }
  }
}

// ---- regressions --------------------------------------------------------------

TEST(AddressSpace, RejectsWrappingAddressRange) {
  std::vector<uint8_t> backing(64, 0);
  AddressSpace space;
  space.map(Region{0x1000, 64, backing.data(), true});
  // addr + len wraps past 2^64 (a register holding -4): must fault, not
  // alias into the region with the highest base.
  uint64_t v = 0;
  EXPECT_FALSE(space.read_u64(UINT64_MAX - 3, &v));
  EXPECT_FALSE(space.write_u64(UINT64_MAX - 3, 1));
  EXPECT_FALSE(space.read_u64(UINT64_MAX, &v));
}

TEST(Process, AllocHeapRejectsOverflowingSize) {
  auto app = OneFn("main", [](CodeBuilder& b) { b.mov_ri(Reg::R0, 0); });
  Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(std::move(app)).value();
  auto pid = machine.CreateProcess("main", /*heap_cap_bytes=*/1 << 16);
  ASSERT_TRUE(pid.ok());
  Process* proc = machine.process(pid.value());
  // Near-UINT64_MAX requests used to wrap the 16-byte alignment round-up
  // (or the cursor addition) into a tiny successful grant.
  EXPECT_EQ(proc->alloc_heap(UINT64_MAX), 0u);
  EXPECT_EQ(proc->alloc_heap(UINT64_MAX - 7), 0u);
  EXPECT_EQ(proc->alloc_heap((1 << 16) + 1), 0u);
  // The failed requests must not have consumed any heap.
  uint64_t a = proc->alloc_heap(32);
  EXPECT_EQ(a, kHeapBase);
  uint64_t b = proc->alloc_heap(1 << 15);
  EXPECT_EQ(b, kHeapBase + 32);
}

TEST(Process, NativeFrameArgFaultSurfaces) {
  // main points SP at the very top of the stack, so the stub's arg(0)
  // read lands outside the mapped stack: the process must fault instead
  // of the stub silently receiving 0.
  CodeBuilder b;
  b.begin_function("main");
  b.mov_ri(Reg::SP, static_cast<int64_t>(kStackBase + kStackSize));
  b.call_sym("probe");
  b.leave_ret();
  b.end_function();
  Machine machine;
  machine.Load(sso::FromCodeUnit("app.so", b.Finish())).value();
  int64_t seen = -1;
  machine.loader().RegisterNative("probe", [&](NativeFrame& frame) {
    seen = frame.arg(0);
    return NativeAction::Ret(0);
  });
  test::RunResult r = test::RunEntry(machine, "main");
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(r.state, ProcState::Faulted);
  EXPECT_EQ(r.signal, Signal::Segv);
  EXPECT_NE(r.fault.find("bad stack read for arg 0 of probe"),
            std::string::npos)
      << r.fault;
}

// ---- snapshot / restore -------------------------------------------------------

TEST(DirtyMap, ReEnableSameSizePreservesMarks) {
  DirtyMap dm;
  dm.Enable(3 * DirtyMap::kPageSize);
  dm.Mark(DirtyMap::kPageSize, 1);
  ASSERT_EQ(dm.DirtyCount(), 1u);
  // Double-Enable at the same size: layered snapshot tree captures re-arm
  // the journal after copying pages out, so marks recorded in between must
  // survive — a silent wipe here would lose writes.
  dm.Enable(3 * DirtyMap::kPageSize);
  EXPECT_EQ(dm.DirtyCount(), 1u);
  // Same page count, different byte size: still the same journal.
  dm.Enable(3 * DirtyMap::kPageSize - 10);
  EXPECT_EQ(dm.DirtyCount(), 1u);
  // A different page count rebuilds the journal all-clean.
  dm.Enable(5 * DirtyMap::kPageSize);
  EXPECT_TRUE(dm.enabled());
  EXPECT_EQ(dm.DirtyCount(), 0u);
}

// A fresh segment has no fill of its own: it must still read all zero, at
// stack size (a large, page-backed allocation), at TLS size and at an odd
// size, also when dirty storage was just freed and can come back from the
// allocator.
TEST(Segment, FreshSegmentReadsAllZero) {
  for (uint64_t bytes : {kStackSize, kTlsSize, uint64_t{3}}) {
    Segment fresh(bytes);
    ASSERT_EQ(fresh.size(), bytes);
    EXPECT_EQ(std::count(fresh.begin(), fresh.end(), 0), ptrdiff_t(bytes))
        << bytes << " bytes";
  }
  for (uint64_t bytes : {kStackSize, kTlsSize}) {
    {
      Segment dirty(bytes);
      std::fill(dirty.begin(), dirty.end(), 0xCD);
    }
    Segment again(bytes);
    EXPECT_EQ(std::count(again.begin(), again.end(), 0), ptrdiff_t(bytes))
        << bytes << " bytes";
  }
  EXPECT_TRUE(Segment(0).empty());
}

TEST(AddressSpace, WriteMarksRegionDirtyJournal) {
  std::vector<uint8_t> backing(2 * DirtyMap::kPageSize, 0);
  DirtyMap dm;
  dm.Enable(backing.size());
  AddressSpace space;
  space.map(Region{0x1000, backing.size(), backing.data(), true, &dm});
  ASSERT_TRUE(space.write_u64(0x1000 + DirtyMap::kPageSize, 7));
  std::vector<uint64_t> pages;
  dm.ForEachDirtyPage([&](uint64_t p) { pages.push_back(p); });
  EXPECT_EQ(pages, (std::vector<uint64_t>{1}));
  // Reads do not mark.
  uint64_t v = 0;
  ASSERT_TRUE(space.read_u64(0x1000, &v));
  EXPECT_EQ(dm.DirtyCount(), 1u);
}

/// A module whose main increments a persistent data slot and exits with
/// the post-increment value: the run count is observable in module data.
sso::SharedObject CounterApp() {
  CodeBuilder b;
  uint32_t slot = b.reserve_data(8);
  b.begin_function("main");
  b.lea_data(Reg::R1, static_cast<int32_t>(slot));
  b.load(Reg::R0, Reg::R1, 0);
  b.add_ri(Reg::R0, 1);
  b.store(Reg::R1, 0, Reg::R0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("counter.so", b.Finish());
}

size_t NonZeroBytes(Process& proc, uint64_t base, uint64_t len) {
  std::vector<uint8_t> bytes(len);
  EXPECT_TRUE(proc.read_mem(base, bytes.data(), len));
  return static_cast<size_t>(
      std::count_if(bytes.begin(), bytes.end(), [](uint8_t b) { return b; }));
}

TEST(MachineSnapshotTree, RestoreTelemetryAccumulates) {
  Machine machine;
  machine.Load(CounterApp()).value();
  EXPECT_FALSE(machine.RestoreSnapshot());  // nothing captured yet
  EXPECT_FALSE(machine.RestoreTo(0));
  auto pid = machine.CreateProcess("main");
  ASSERT_TRUE(pid.ok());
  // The first process checkpointed: the tree is its root alone, so there
  // is still no flat snapshot to return to.
  EXPECT_EQ(machine.snapshot_node_count(), 1u);
  EXPECT_EQ(machine.current_snapshot(), 0u);
  EXPECT_FALSE(machine.RestoreSnapshot());
  SnapshotId window = machine.PushSnapshot();
  EXPECT_EQ(window, 1u);
  EXPECT_EQ(machine.restore_stats().restores, 0u);
  // A module-data page and a heap page written only between `window` and
  // a child: restoring child to `window` with clean journals must undo both
  // through the child's deltas on the tree path.
  Process& proc = *machine.process(pid.value());
  const uint64_t data = machine.loader().module_named("counter.so")->data_base;
  const uint64_t heap = kHeapBase + 3 * DirtyMap::kPageSize;
  const uint64_t v = 0x99;
  ASSERT_TRUE(proc.write_mem(data, &v, 8));
  ASSERT_TRUE(proc.write_mem(heap, &v, 8));
  SnapshotId child = machine.PushSnapshot();
  ASSERT_TRUE(machine.RestoreTo(window));
  EXPECT_EQ(NonZeroBytes(proc, data, 8), 0u);
  EXPECT_EQ(NonZeroBytes(proc, heap, 8), 0u);
  machine.RunToCompletion(pid.value());
  ASSERT_TRUE(machine.RestoreTo(window));
  EXPECT_FALSE(machine.RestoreTo(child + 1));  // past the last node
  const SnapshotRestoreStats& stats = machine.restore_stats();
  EXPECT_EQ(stats.restores, 2u);
  EXPECT_GT(stats.pages_restored, 0u);  // the run dirtied at least 1 page
  EXPECT_GT(stats.nodes_walked, 0u);
  // The flat API keeps the checkpoint and replaces every other node with
  // one child of it.
  machine.Snapshot();
  EXPECT_EQ(machine.snapshot_node_count(), 2u);
  EXPECT_EQ(machine.current_snapshot(), 1u);
  EXPECT_FALSE(machine.RestoreTo(child));
  ASSERT_TRUE(machine.RestoreTo(0));
  EXPECT_TRUE(machine.processes().empty());
  ASSERT_TRUE(machine.RestoreSnapshot());
  EXPECT_EQ(machine.RunToCompletion(pid.value()).exit_code, 1);
}

// Snapshot() replaces every node below the checkpoint, so a flat snapshot
// taken at a deeper node must hold the pages that node's delta held.
TEST(MachineSnapshotTree, FlatSnapshotAtADeeperNodeKeepsItsPages) {
  Machine machine;
  machine.Load(CounterApp()).value();
  auto pid = machine.CreateProcess("main");
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(machine.RunToCompletion(pid.value()).exit_code, 1);
  machine.PushSnapshot();  // the counter's page is in this node's delta
  machine.Snapshot();
  machine.Reset();
  auto cold = machine.CreateProcess("main");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(machine.RunToCompletion(cold.value()).exit_code, 1);
  ASSERT_TRUE(machine.RestoreSnapshot());
  auto again = machine.CreateProcess("main");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(machine.RunToCompletion(again.value()).exit_code, 2);
}

// Machine::StateDigest of a fixed cold run, pinned: campaign state digests
// and SEU verdicts compare digests across runs and builds, so the digest
// helpers must keep producing these values.
TEST(MachineDigest, FixedColdRunIsPinned) {
  Machine machine;
  machine.Load(CounterApp()).value();
  auto pid = machine.CreateProcess("main");
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(machine.StateDigest(), 0x9090f646fe55e5d1ull);
  EXPECT_EQ(machine.RunToCompletion(pid.value()).exit_code, 1);
  EXPECT_EQ(machine.StateDigest(), 0xd9025c72cb1eb62bull);
}

/// "scribble" counts its runs in its own data slot (exiting with the new
/// count) and creates "/s" through libc: a run changes module data and the
/// kernel's files.
sso::SharedObject ScribbleApp() {
  CodeBuilder b;
  uint32_t path = b.emit_data({'/', 's', 0});
  uint32_t slot = b.reserve_data(8);
  b.begin_function("scribble");
  b.mov_ri(Reg::R2, libc::O_WRONLY | libc::O_CREAT);
  b.lea_data(Reg::R1, static_cast<int32_t>(path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.lea_data(Reg::R1, static_cast<int32_t>(slot));
  b.load(Reg::R0, Reg::R1, 0);
  b.add_ri(Reg::R0, 1);
  b.store(Reg::R1, 0, Reg::R0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("scribble.so", b.Finish(), {"libc.so"});
}

// A module loaded after the checkpoint joins it as loaded: Reset after a
// run that wrote the module's data and the kernel's files reaches the
// state of a machine that loaded everything up front and ran nothing —
// whether the first process took the checkpoint or setup did.
TEST(MachineCheckpoint, ResetRestoresModulesLoadedSinceTheCheckpoint) {
  auto setup = [](Machine& machine) {
    machine.Load(libc::BuildLibc()).value();
    machine.kernel().add_file("/cfg", {1, 2, 3});
  };
  Machine fresh;
  setup(fresh);
  fresh.Load(ScribbleApp()).value();

  for (bool explicit_checkpoint : {false, true}) {
    SCOPED_TRACE(explicit_checkpoint ? "explicit" : "implicit");
    Machine machine;
    setup(machine);
    if (explicit_checkpoint) {
      machine.Checkpoint();
    } else {
      ASSERT_TRUE(machine.CreateProcess("getpid").ok());
      machine.Run();
    }
    ASSERT_EQ(machine.snapshot_node_count(), 1u);
    machine.Load(ScribbleApp()).value();
    for (int run = 0; run < 2; ++run) {
      auto pid = machine.CreateProcess("scribble");
      ASSERT_TRUE(pid.ok());
      EXPECT_EQ(machine.RunToCompletion(pid.value()).exit_code, 1);
      EXPECT_TRUE(machine.kernel().has_file("/s"));
      machine.Reset();
      EXPECT_TRUE(machine.processes().empty());
      EXPECT_EQ(machine.StateDigest(), fresh.StateDigest());
      EXPECT_FALSE(machine.kernel().has_file("/s"));
      EXPECT_EQ(machine.kernel().file_contents("/cfg"),
                fresh.kernel().file_contents("/cfg"));
      EXPECT_EQ(machine.kernel().kcall_count(), 0u);
    }
  }
}

// ---- segment recycling --------------------------------------------------------

/// "idle" returns at once.
sso::SharedObject IdleApp() {
  CodeBuilder b;
  b.begin_function("idle");
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("idle.so", b.Finish());
}

/// Destroy every process and spawn a fresh one: its segments are the pool
/// buffers just released, which must read all-zero apart from the exit
/// sentinel Start pushes onto the top stack slot.
void ExpectNextSpawnZeroed(Machine& machine) {
  machine.Reset();
  auto pid = machine.CreateProcess("idle");
  ASSERT_TRUE(pid.ok());
  Process& proc = *machine.process(pid.value());
  EXPECT_EQ(NonZeroBytes(proc, kStackBase, kStackSize - 8), 0u);
  EXPECT_EQ(NonZeroBytes(proc, kHeapBase, proc.heap_bytes()), 0u);
  EXPECT_EQ(NonZeroBytes(proc, kTlsBase, kTlsSize), 0u);
}

TEST(SegmentRecycling, RestorePageCopiesAreZeroedOnRelease) {
  // Snapshot: heap page 2 written. A child: heap page 9 written on top.
  // After Reset, RestoreSnapshot rebuilds the process on recycled buffers
  // (a full image copy) and RestoreTo(child) copies page 9 in place: both
  // copies put bytes no guest write produced into the buffer.
  Machine machine;
  machine.Load(IdleApp()).value();
  auto pid = machine.CreateProcess("idle");
  ASSERT_TRUE(pid.ok());
  const uint64_t v = 0x7777;
  ASSERT_TRUE(machine.process(pid.value())
                  ->write_mem(kHeapBase + 2 * DirtyMap::kPageSize, &v, 8));
  machine.Snapshot();
  ASSERT_TRUE(machine.process(pid.value())
                  ->write_mem(kHeapBase + 9 * DirtyMap::kPageSize, &v, 8));
  SnapshotId node = machine.PushSnapshot();

  machine.Reset();
  ASSERT_TRUE(machine.RestoreSnapshot());  // rebuild from a materialized image
  ASSERT_TRUE(machine.RestoreTo(node));  // in place: copies heap page 9
  Process& proc = *machine.process(pid.value());
  EXPECT_EQ(NonZeroBytes(proc, kHeapBase + 9 * DirtyMap::kPageSize, 8), 2u);
  EXPECT_EQ(NonZeroBytes(proc, kHeapBase + 2 * DirtyMap::kPageSize, 8), 2u);
  ExpectNextSpawnZeroed(machine);
}

// A pooled process comes back as a just-constructed one: registers and
// shadow stack reset, segments zero, and no live snapshot journal — a
// journal left on would let the next tree capture or restore treat the
// new process as the one the tree recorded.
TEST(SegmentRecycling, RecycledProcessStartsWithoutAJournal) {
  Machine machine;
  machine.Load(IdleApp()).value();
  ASSERT_TRUE(machine.CreateProcess("idle").ok());
  machine.Snapshot();
  ASSERT_TRUE(machine.process(1)->dirty_tracking_enabled());
  machine.Reset();
  ASSERT_TRUE(machine.CreateProcess("idle").ok());
  const Process& proc = *machine.process(1);
  EXPECT_FALSE(proc.dirty_tracking_enabled());
  EXPECT_EQ(proc.instructions(), 0u);
  EXPECT_EQ(proc.shadow_stack().size(), 1u);  // Start's entry frame
}

TEST(Process, UnknownSyscallNumberReturnsNosys) {
  // Exercises the flat syscall-target table's bounds path (numbers past
  // the table and unimplemented holes both return -E_NOSYS).
  auto app = OneFn("main", [](CodeBuilder& b) {
    b.syscall(9999);
    // R0 now holds -E_NOSYS; return it.
  });
  EXPECT_EQ(RunAndGetExit(std::move(app), "main"), -E_NOSYS);
}

// ---- fast memory path vs AddressSpace ----------------------------------------

}  // namespace

// Reaches a process's AddressSpace and segment journals, so the tests
// below can hold read_mem/write_mem (layout arithmetic first) against the
// AddressSpace search that the reference engine's LOAD/STORE use.
struct ProcessMemoryPeer {
  static AddressSpace& space(Process& p) { return p.space_; }
  static std::vector<const DirtyMap*> journals(const Process& p) {
    return {&p.stack_dirty_, &p.heap_dirty_, &p.tls_dirty_};
  }
};

namespace {

sso::SharedObject ModuleWithData(const std::string& name,
                                 const std::string& fn, uint32_t data_bytes) {
  CodeBuilder b;
  b.reserve_data(data_bytes);
  b.begin_function(fn);
  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit(name, b.Finish());
}

/// A machine with libc, an app whose data section ends mid-page, and one
/// process. Every writable byte holds an address-derived pattern (so a
/// misplaced pointer reads wrong bytes), and a snapshot has left every
/// dirty journal enabled and clean.
struct MemRig {
  Machine machine;
  Process* proc = nullptr;

  explicit MemRig(uint64_t heap_cap) {
    machine.Load(libc::BuildLibc()).value();
    machine.Load(ModuleWithData("app.so", "main", 5000)).value();
    auto pid = machine.CreateProcess("main", heap_cap);
    EXPECT_TRUE(pid.ok());
    proc = machine.process(pid.value());
    for (const auto& [base, size] : WritableRegions()) {
      std::vector<uint8_t> bytes(size);
      for (uint64_t i = 0; i < size; ++i) {
        bytes[i] = static_cast<uint8_t>((base + i) * 0x9E3779B1u >> 13);
      }
      EXPECT_TRUE(space().write(base, bytes.data(), size));
    }
    machine.Snapshot();
  }

  AddressSpace& space() { return ProcessMemoryPeer::space(*proc); }

  std::vector<std::pair<uint64_t, uint64_t>> WritableRegions() {
    std::vector<std::pair<uint64_t, uint64_t>> out = {
        {kStackBase, kStackSize}, {kTlsBase, kTlsSize}};
    if (uint64_t heap = proc->heap_bytes()) out.push_back({kHeapBase, heap});
    for (const auto& mod : machine.loader().modules()) {
      if (!mod->data_runtime.empty()) {
        out.push_back({mod->data_base, mod->data_runtime.size()});
      }
    }
    return out;
  }

  /// Journal-dirty pages of every segment and every module's data.
  std::vector<std::vector<uint64_t>> DirtyPages() {
    std::vector<const DirtyMap*> maps = ProcessMemoryPeer::journals(*proc);
    for (const auto& mod : machine.loader().modules()) {
      maps.push_back(&mod->data_dirty);
    }
    std::vector<std::vector<uint64_t>> out;
    for (const DirtyMap* map : maps) {
      out.emplace_back();
      map->ForEachDirtyPage([&](uint64_t page) { out.back().push_back(page); });
    }
    return out;
  }
};

/// Addresses around every edge of every region of `rig` (first byte, one
/// before, one past the end, the last 8 bytes, straddling the end), for
/// both the code and data of each module, plus wild addresses.
std::vector<std::pair<uint64_t, uint64_t>> EdgeProbes(MemRig& rig) {
  std::vector<std::pair<uint64_t, uint64_t>> regions = {
      {kStackBase, kStackSize}, {kHeapBase, rig.proc->heap_bytes()},
      {kTlsBase, kTlsSize}};
  for (const auto& mod : rig.machine.loader().modules()) {
    regions.push_back({mod->code_base, mod->object.code.size()});
    regions.push_back({mod->data_base, mod->data_runtime.size()});
  }
  std::vector<std::pair<uint64_t, uint64_t>> probes;  // {addr, n}
  for (const auto& [base, size] : regions) {
    for (uint64_t addr : {base - 1, base, base + 1, base + size / 2,
                          base + size - 8, base + size - 1, base + size,
                          base + size + 1}) {
      probes.push_back({addr, size});
    }
  }
  size_t next_module = rig.machine.loader().modules().size();
  for (uint64_t addr : {uint64_t{0}, kModuleBase - 1, kNativeStubBase,
                        ModuleCodeBase(next_module), kExitSentinel,
                        ~uint64_t{0} - 3}) {
    probes.push_back({addr, 64});
  }
  return probes;
}

/// Run every probe at lengths 0, 1, 8, 13, 4101 and the region size on
/// both rigs: `fast` through Process::read_mem/write_mem, `oracle`
/// through the AddressSpace alone. Verdicts, bytes read, bytes written
/// and dirty pages must match after every access.
void ExpectFastMemAgrees(MemRig& fast, MemRig& oracle) {
  std::vector<std::pair<uint64_t, uint64_t>> probes = EdgeProbes(fast);
  ASSERT_EQ(probes, EdgeProbes(oracle));
  uint8_t salt = 0;
  for (const auto& [addr, n] : probes) {
    for (uint64_t len : {uint64_t{0}, uint64_t{1}, uint64_t{8}, uint64_t{13},
                         uint64_t{4101}, n}) {
      SCOPED_TRACE(testing::Message() << std::hex << "addr=" << addr
                                      << " len=" << std::dec << len);
      std::vector<uint8_t> got(len, 0xCC), want(len, 0xCC);
      EXPECT_EQ(fast.proc->read_mem(addr, got.data(), len),
                oracle.space().read(addr, want.data(), len));
      EXPECT_EQ(got, want);

      std::vector<uint8_t> payload(len);
      for (uint8_t& byte : payload) byte = ++salt;
      EXPECT_EQ(fast.proc->write_mem(addr, payload.data(), len),
                oracle.space().write(addr, payload.data(), len));
      got.assign(len, 0xCC);
      want.assign(len, 0xCC);
      EXPECT_EQ(fast.space().read(addr, got.data(), len),
                oracle.space().read(addr, want.data(), len));
      EXPECT_EQ(got, want);
      EXPECT_EQ(fast.DirtyPages(), oracle.DirtyPages());
    }
  }
  EXPECT_EQ(fast.proc->StateDigest(), oracle.proc->StateDigest());
  for (size_t m = 0; m < fast.machine.loader().modules().size(); ++m) {
    EXPECT_EQ(fast.machine.loader().modules()[m]->data_runtime,
              oracle.machine.loader().modules()[m]->data_runtime);
  }
}

TEST(FastMemAgreement, MatchesAddressSpaceAtEverySegmentEdge) {
  for (uint64_t heap_cap : {uint64_t{3 * DirtyMap::kPageSize + 24},
                            uint64_t{0}}) {
    SCOPED_TRACE(heap_cap);
    MemRig fast(heap_cap), oracle(heap_cap);
    ExpectFastMemAgrees(fast, oracle);
  }
}

TEST(FastMemAgreement, MatchesAddressSpaceForModuleLoadedSinceRemap) {
  // The process mapped its AddressSpace before this load, so the new
  // module is not in it yet; the fast path must defer to that verdict
  // for the whole module band rather than reach the new module early.
  MemRig fast(1 << 16), oracle(1 << 16);
  fast.machine.Load(ModuleWithData("late.so", "late", 100)).value();
  oracle.machine.Load(ModuleWithData("late.so", "late", 100)).value();
  ExpectFastMemAgrees(fast, oracle);
}

}  // namespace
}  // namespace lfi::vm
