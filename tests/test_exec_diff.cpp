// Differential tests of the execution engines on the tier-1 workloads:
// the superblock engine (ExecMode::Superblock) must behave bit-identically
// to the reference decode-per-step path (ExecMode::Reference), the
// semantic oracle.
//
//   - db-suite and Pidgin runs: instruction counts, exits, faults,
//     coverage bitmaps, injection logs, and replay XML equal across both
//     engines;
//   - a snapshot taken mid-superblock (warmup not on a block boundary)
//     restores the exact instruction counter and coverage;
//   - code-cache lifecycle: the decoded streams survive interposition
//     reinstall, Machine::Reset, and post-run module loads.
//
// Synthetic-program fuzzing and superblock partition properties live in
// test_superblock.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "core/controller.hpp"
#include "core/faultloads.hpp"
#include "core/scenario_gen.hpp"
#include "libc/libc_builder.hpp"
#include "test_helpers.hpp"
#include "vm/machine.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;

// ---- tier-1 workload differential -------------------------------------------

/// Everything an engine run can observably produce.
struct ExecOutcome {
  vm::ProcState state = vm::ProcState::Exited;
  int64_t exit_code = 0;
  vm::Signal signal = vm::Signal::None;
  std::string fault_message;
  uint64_t total_instructions = 0;
  uint64_t proc_instructions = 0;
  std::vector<std::vector<uint32_t>> coverage;  // per module index
  std::vector<std::string> injections;          // formatted log records
  std::string replay_xml;
};

void ExpectIdentical(const ExecOutcome& fast, const ExecOutcome& ref) {
  EXPECT_EQ(fast.state, ref.state);
  EXPECT_EQ(fast.exit_code, ref.exit_code);
  EXPECT_EQ(fast.signal, ref.signal);
  EXPECT_EQ(fast.fault_message, ref.fault_message);
  EXPECT_EQ(fast.total_instructions, ref.total_instructions);
  EXPECT_EQ(fast.proc_instructions, ref.proc_instructions);
  EXPECT_EQ(fast.coverage, ref.coverage);
  EXPECT_EQ(fast.injections, ref.injections);
  EXPECT_EQ(fast.replay_xml, ref.replay_xml);
}

std::vector<std::string> FormatLog(const core::InjectionLog& log) {
  std::vector<std::string> out;
  for (const core::InjectionRecord& r : log.records()) {
    std::string line = log.function_name(r);
    line += " call=" + std::to_string(r.call_number);
    if (r.has_retval) line += " ret=" + std::to_string(r.retval);
    if (r.errno_value) line += " errno=" + std::to_string(*r.errno_value);
    if (r.call_original) line += " orig";
    for (const auto& [idx, v] : r.modified_args) {
      line += " arg" + std::to_string(idx) + "=" + std::to_string(v);
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// One DB-suite regression run under a random libc faultload.
ExecOutcome RunDbSuiteOnce(vm::ExecMode mode, uint64_t seed) {
  vm::Machine machine;
  machine.SetExecMode(mode);
  apps::DbSuiteMachineSetup()(machine);
  vm::CoverageTracker* cov = machine.EnableCoverage();
  core::Controller controller(machine);
  core::Plan plan = core::GenerateRandom(apps::LibcProfiles(), 0.3, seed);
  EXPECT_TRUE(controller.Install(plan, apps::LibcProfiles()).ok());
  auto pid = machine.CreateProcess(apps::kDbTestEntry);
  ExecOutcome out;
  if (!pid.ok()) return out;
  auto info = machine.RunToCompletion(pid.value(), 50'000'000);
  out.state = info.state;
  out.exit_code = info.exit_code;
  out.signal = info.signal;
  out.fault_message = info.fault_message;
  out.total_instructions = machine.total_instructions();
  out.proc_instructions = machine.process(pid.value())->instructions();
  for (size_t m = 0; m < cov->module_count(); ++m) {
    out.coverage.push_back(cov->executed(m).ToOffsets());
  }
  out.injections = FormatLog(controller.log());
  out.replay_xml = controller.GenerateReplay().ToXml();
  return out;
}

TEST(ExecDiff, DbSuiteIdenticalAcrossEngines) {
  for (uint64_t seed : {7u, 21u, 93u, 400u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExecOutcome ref = RunDbSuiteOnce(vm::ExecMode::Reference, seed);
    ExecOutcome sb = RunDbSuiteOnce(vm::ExecMode::Superblock, seed);
    ExpectIdentical(sb, ref);
    EXPECT_GT(sb.total_instructions, 0u);
  }
}

/// Pidgin under the paper's scenario (random I/O faults, p=0.1), run the
/// way `lfi campaign --exec` runs it: a warm PlanRunner on `mode`.
campaign::PlanRunner PidginRunner(vm::ExecMode mode) {
  campaign::CampaignOptions opts;
  opts.exec_mode = mode;
  opts.entry = apps::kPidginEntry;
  opts.default_heap_cap = 1 << 20;  // so the huge bogus malloc() fails
  opts.collect_replays = true;
  return campaign::PlanRunner(
      apps::PidginMachineSetup(),
      std::make_shared<const std::vector<core::FaultProfile>>(
          apps::LibcProfiles()),
      opts);
}

TEST(ExecDiff, PidginScenarioIdenticalAcrossEngines) {
  campaign::PlanRunner ref_runner = PidginRunner(vm::ExecMode::Reference);
  campaign::PlanRunner fast_runner = PidginRunner(vm::ExecMode::Superblock);
  auto aborted = [](const campaign::ScenarioResult& r) {
    return r.status == campaign::ScenarioStatus::Crashed &&
           r.signal == vm::Signal::Abort;
  };
  bool any_abort = false;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    core::Plan plan = core::FileIoFaultload(apps::LibcProfiles(), 0.1, seed);
    campaign::ScenarioResult ref = ref_runner.Run(plan);
    campaign::ScenarioResult fast = fast_runner.Run(plan);
    EXPECT_EQ(aborted(fast), aborted(ref));
    EXPECT_EQ(fast.status == campaign::ScenarioStatus::Deadlocked,
              ref.status == campaign::ScenarioStatus::Deadlocked);
    EXPECT_EQ(fast.exit_code, ref.exit_code);
    EXPECT_EQ(fast.fault_message, ref.fault_message);
    EXPECT_EQ(fast.injections, ref.injections);
    EXPECT_EQ(fast.replay.ToXml(), ref.replay.ToXml());
    any_abort |= aborted(ref);
  }
  // The bug should still fire somewhere in this seed range on both engines.
  EXPECT_TRUE(any_abort);
}

// ---- snapshot taken mid-superblock ------------------------------------------

/// Warmup counts land mid-superblock almost always; this nudges one that
/// happens to sit on a boundary forward until it does not, so the test
/// exercises exactly the "counter re-materialized inside a fused span"
/// case the superblock engine must get right.
bool PcIsMidSuperblock(vm::Machine& machine, uint64_t pc) {
  const vm::LoadedModule* mod = machine.loader().module_at(pc);
  if (mod == nullptr) return false;
  const vm::CodeCache::ModuleStream* stream =
      machine.loader().code_cache().stream(mod->index);
  if (stream == nullptr) return false;
  uint32_t off = static_cast<uint32_t>(pc - mod->code_base);
  uint32_t slot = stream->slot_of_offset[off];
  if (slot == vm::CodeCache::kNoSlot) return false;
  return slot != stream->superblocks[stream->sb_of_slot[slot]].first_slot;
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
  uint64_t warm = proc->Run(1237);
  // Nudge off superblock boundaries (and off the rare mid-warmup exit).
  for (int i = 0; i < 16 && proc->state() == vm::ProcState::Runnable &&
                  !PcIsMidSuperblock(machine, proc->pc());
       ++i) {
    warm += proc->Run(1);
  }
  EXPECT_EQ(proc->state(), vm::ProcState::Runnable);
  EXPECT_TRUE(PcIsMidSuperblock(machine, proc->pc()));
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
  machine.Load(libc::BuildLibc());
  machine.Load(TwiceApp());

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
  machine.Load(sso::FromCodeUnit("late.so", b2.Finish()));
  machine.Reset();
  EXPECT_EQ(test::RunEntry(machine, "entry2").exit_code, 42);

  // Stream invariants: every module has a stream whose slot<->offset maps
  // round-trip.
  const vm::Loader& loader = machine.loader();
  for (const auto& mod : loader.modules()) {
    const vm::CodeCache::ModuleStream* stream =
        loader.code_cache().stream(mod->index);
    ASSERT_NE(stream, nullptr) << mod->object.name;
    ASSERT_FALSE(stream->instrs.empty()) << mod->object.name;
    ASSERT_EQ(stream->slot_of_offset.size(), mod->object.code.size());
    for (uint32_t slot = 0; slot < stream->instrs.size(); ++slot) {
      EXPECT_EQ(stream->slot_of_offset[stream->instrs[slot].offset], slot);
    }
  }
}

}  // namespace
}  // namespace lfi
