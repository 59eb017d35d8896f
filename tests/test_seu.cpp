// SEU fault-model tests: the <seu> plan element, precise instruction-stop
// arming, outcome classification, the SIHFT hardening transforms, replay
// and the SDC-directed search.
//
// An SEU campaign's verdict (including the architectural state digest of
// every run) may depend only on the scenario, never on how it was
// executed: a flip armed mid-superblock must deoptimize the fused span at
// exactly the right instruction and leave the machine in the state the
// reference interpreter reaches. Here that is checked at single instants
// (InstructionStop.MidRunDigestIdenticalAcrossEngines); test_matrix's seu
// row holds whole sweeps identical across engines, jobs counts, snapshot
// modes and the fabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/seu_guest.hpp"
#include "campaign/runner.hpp"
#include "campaign/seu.hpp"
#include "core/controller.hpp"
#include "core/scenario.hpp"
#include "isa/codebuilder.hpp"
#include "isa/harden.hpp"
#include "libc/libc_builder.hpp"
#include "test_helpers.hpp"
#include "vm/machine.hpp"

namespace lfi {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::Scenario;
using campaign::ScenarioResult;
using core::Plan;
using core::SeuFault;
using isa::CodeBuilder;
using isa::Reg;

// ---- <seu> plan XML --------------------------------------------------------

TEST(SeuXml, RejectsMalformedFaults) {
  auto bad = [](const char* xml) {
    auto plan = Plan::FromXml(xml);
    EXPECT_FALSE(plan.ok()) << "accepted: " << xml;
  };
  bad(R"(<plan><seu target="flux" reg="R0" bit="1" at="5" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R9" bit="1" at="5" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R0" bit="64" at="5" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R0" bit="-1" at="5" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R0" bit="1" at="many" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R0" bit="1" at="5" pid="0" /></plan>)");
  bad(R"(<plan><seu target="data" offset="8" bit="1" at="5" /></plan>)");
  bad(R"(<plan><seu target="stack" offset="8x" bit="1" at="5" /></plan>)");
  bad(R"(<plan><seu target="reg" reg="R0" bit="1" at="5" )"
      R"(wmodule="m" wbegin="9" wend="4" /></plan>)");
}

// ---- precise instruction stops ---------------------------------------------

/// All four guest variants share one observable: at any armed instant the
/// summed per-process instruction counts equal the instant exactly.
TEST(InstructionStop, FiresAtTheExactInstant) {
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
  ASSERT_TRUE(guest.ok());
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(guest.value()).value();
  std::vector<uint64_t> observed;
  for (uint64_t at : {1ull, 7ull, 1999ull, 2000ull, 2001ull, 5000ull}) {
    machine.ArmInstructionStop(at, [&observed](vm::Machine& m) {
      uint64_t executed = 0;
      for (const auto& p : m.processes()) executed += p->instructions();
      observed.push_back(executed);
    });
  }
  ASSERT_TRUE(machine.CreateProcess(apps::kSeuGuestEntry).ok());
  machine.Run();
  // Stops straddle quantum boundaries (kQuantum = 2000) deliberately.
  EXPECT_EQ(observed,
            (std::vector<uint64_t>{1, 7, 1999, 2000, 2001, 5000}));
  EXPECT_EQ(machine.armed_stop_count(), 0u);
}

TEST(InstructionStop, NeverDueStopsDoNotFireAndResetClears) {
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
  ASSERT_TRUE(guest.ok());
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(guest.value()).value();
  bool fired = false;
  machine.ArmInstructionStop(1'000'000'000,
                             [&fired](vm::Machine&) { fired = true; });
  ASSERT_TRUE(machine.CreateProcess(apps::kSeuGuestEntry).ok());
  machine.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(machine.armed_stop_count(), 1u);
  machine.Reset();
  EXPECT_EQ(machine.armed_stop_count(), 0u);
}

/// The mid-span deoptimization claim: stopping at instruction N and
/// digesting the machine yields the same bits in both engines, for
/// instants chosen to fall inside fused superblock spans.
TEST(InstructionStop, MidRunDigestIdenticalAcrossEngines) {
  for (uint64_t at : {37ull, 1234ull, 4321ull, 8000ull}) {
    std::vector<uint64_t> digests;
    for (vm::ExecMode mode :
         {vm::ExecMode::Superblock, vm::ExecMode::Reference}) {
      auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
      ASSERT_TRUE(guest.ok());
      vm::Machine machine;
      machine.SetExecMode(mode);
      machine.Load(libc::BuildLibc()).value();
      machine.Load(guest.value()).value();
      machine.ArmInstructionStop(at, [&digests](vm::Machine& m) {
        digests.push_back(m.StateDigest());
      });
      ASSERT_TRUE(machine.CreateProcess(apps::kSeuGuestEntry).ok());
      machine.Run();
    }
    ASSERT_EQ(digests.size(), 2u) << "instant " << at;
    EXPECT_EQ(digests[0], digests[1]) << "instant " << at;
  }
}

// ---- landing ---------------------------------------------------------------

/// Runs `plan` on a guest whose main adds to R0 twenty times; `pc_rel`
/// receives main's module-relative pc at instant 5, where the flips land.
void RunAdds(vm::Machine& machine, core::Controller& controller,
             const Plan& plan, uint64_t* pc_rel) {
  CodeBuilder b;
  b.begin_function("main");
  for (int i = 0; i < 20; ++i) b.add_ri(Reg::R0, 1);
  b.leave_ret();
  b.end_function();
  machine.Load(sso::FromCodeUnit("adds.so", b.Finish())).value();
  EXPECT_TRUE(controller.Install(plan, nullptr).ok());
  const uint64_t base = machine.loader().module_named("adds.so")->code_base;
  machine.ArmInstructionStop(5, [base, pc_rel](vm::Machine& m) {
    *pc_rel = m.processes().front()->pc() - base;
  });
  EXPECT_TRUE(machine.CreateProcess("main").ok());
  machine.Run();
}

// A flip lands in the segment its target names, and a windowed flip only
// while the pc is inside [window_begin, window_end).
TEST(SeuLanding, TargetsAndWindowsAreExact) {
  SeuFault stack;
  stack.target = SeuFault::Target::Stack;
  stack.offset = 64;
  stack.bit = 3;
  stack.at_instruction = 5;
  SeuFault heap = stack;
  heap.target = SeuFault::Target::Heap;
  heap.bit = 5;
  Plan plan;
  plan.seus = {stack, heap};
  uint64_t pc_rel = 0;
  {
    vm::Machine machine;
    core::Controller controller(machine);
    RunAdds(machine, controller, plan, &pc_rel);
    EXPECT_EQ(controller.seu_landed(), 2u);
    vm::Process& proc = *machine.processes().front();
    uint64_t word = 0;
    ASSERT_TRUE(proc.read_mem(vm::kStackBase + 64, &word, 8));
    EXPECT_EQ(word, 8u);
    ASSERT_TRUE(proc.read_mem(vm::kHeapBase + 64, &word, 8));
    EXPECT_EQ(word, 32u);
  }
  for (uint64_t past_end : {0, 1}) {
    SeuFault reg;
    reg.target = SeuFault::Target::Reg;
    reg.reg = 3;
    reg.at_instruction = 5;
    reg.window_module = "adds.so";
    reg.window_end = pc_rel + past_end;
    Plan windowed;
    windowed.seus = {reg};
    vm::Machine machine;
    core::Controller controller(machine);
    uint64_t at = 0;
    RunAdds(machine, controller, windowed, &at);
    ASSERT_EQ(at, pc_rel);
    EXPECT_EQ(controller.seu_landed(), past_end) << "window end " << pc_rel;
  }
}

// ---- outcome classification ------------------------------------------------

TEST(SeuClassify, Taxonomy) {
  campaign::GoldenRun golden;
  golden.status = campaign::ScenarioStatus::Exited;
  golden.exit_code = 40;
  golden.state_digest = 0x1111;
  const int64_t detect = isa::kSeuDetectExitCode;

  ScenarioResult r;
  r.status = campaign::ScenarioStatus::Crashed;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Crash);
  r.status = campaign::ScenarioStatus::Deadlocked;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Crash);
  r.status = campaign::ScenarioStatus::BudgetSpent;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Crash);

  r.status = campaign::ScenarioStatus::Exited;
  r.exit_code = detect;
  r.state_digest = 0x9999;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Detected);

  r.exit_code = golden.exit_code;
  r.state_digest = golden.state_digest;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Masked);

  // Same exit code, different final state: silently corrupted.
  r.state_digest = 0x2222;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Sdc);
  r.exit_code = 41;
  r.state_digest = golden.state_digest;
  EXPECT_EQ(campaign::ClassifySeu(r, golden, detect),
            campaign::SeuOutcome::Sdc);

  // A guest whose *golden* exit code equals the detect code gives the
  // classifier no detection signal — such exits stay masked/sdc.
  campaign::GoldenRun odd = golden;
  odd.exit_code = detect;
  r.exit_code = detect;
  r.state_digest = odd.state_digest;
  EXPECT_EQ(campaign::ClassifySeu(r, odd, detect),
            campaign::SeuOutcome::Masked);

  // A campaign counts the flips that never landed.
  CampaignReport report;
  report.results.resize(2);
  report.results[1].seu_landed = 1;
  EXPECT_EQ(campaign::ClassifyCampaign(report, golden, detect)
                .counts.not_landed,
            1u);
}

// ---- SIHFT transforms ------------------------------------------------------

TEST(Harden, TmrVoteRepairsASingleFlippedCopy) {
  CodeBuilder b;
  b.begin_function("main");
  b.mov_ri(Reg::R1, 0x5A5A);
  b.mov_ri(Reg::R4, 0x5A5A);
  b.mov_ri(Reg::R5, 0x5A5A);
  b.xor_ri(Reg::R4, 1 << 13);  // the SEU: one copy diverges
  isa::EmitTmrVote(b, Reg::R1, Reg::R4, Reg::R5, Reg::R6);
  // All three copies must equal the original value again; exit with the
  // xor-fold so any residue is visible in the exit code.
  b.mov_rr(Reg::R0, Reg::R1);
  b.xor_rr(Reg::R0, Reg::R4);
  b.xor_rr(Reg::R0, Reg::R5);
  b.xor_ri(Reg::R0, 0x5A5A);
  b.halt();
  b.end_function();
  auto result = test::RunProgram(sso::FromCodeUnit("tmr.so", b.Finish()),
                                 "main");
  EXPECT_EQ(result.state, vm::ProcState::Exited);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(Harden, DwcCheckCatchesADivergedPair) {
  CodeBuilder b;
  b.begin_function("main");
  auto detect = b.new_label();
  isa::DwcEmitter d(b, {{Reg::R1, Reg::R4}}, detect);
  d.mov_ri(Reg::R1, 5);
  b.xor_ri(Reg::R4, 1);  // the SEU: shadow copy flips
  d.add_ri(Reg::R1, 3);  // both copies advance; divergence persists
  d.check(Reg::R1);
  b.mov_ri(Reg::R0, 0);
  b.halt();
  b.bind(detect);
  b.mov_ri(Reg::R0, isa::kSeuDetectExitCode);
  b.halt();
  b.end_function();
  auto result = test::RunProgram(sso::FromCodeUnit("dwc.so", b.Finish()),
                                 "main");
  EXPECT_EQ(result.state, vm::ProcState::Exited);
  EXPECT_EQ(result.exit_code, isa::kSeuDetectExitCode);
}

TEST(Harden, FaultFreeGuestVariantsComputeTheSameResult) {
  // The hardening transforms must be semantics-preserving: with no flip
  // injected, all four variants reach the same checksum-derived exit code.
  std::vector<int64_t> exits;
  for (apps::HardeningMode mode :
       {apps::HardeningMode::None, apps::HardeningMode::Dwc,
        apps::HardeningMode::Cfcss, apps::HardeningMode::Tmr}) {
    auto guest = apps::BuildSeuGuest(mode);
    ASSERT_TRUE(guest.ok()) << apps::HardeningModeName(mode);
    auto result = test::RunProgram(std::move(guest).take(),
                                   apps::kSeuGuestEntry);
    EXPECT_EQ(result.state, vm::ProcState::Exited)
        << apps::HardeningModeName(mode) << ": " << result.fault;
    exits.push_back(result.exit_code);
  }
  ASSERT_EQ(exits.size(), 4u);
  EXPECT_EQ(exits[0], exits[1]);
  EXPECT_EQ(exits[0], exits[2]);
  EXPECT_EQ(exits[0], exits[3]);
  EXPECT_NE(exits[0], isa::kSeuDetectExitCode);
}

TEST(Harden, CfcssRewriteIsWellFormed) {
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::Cfcss);
  ASSERT_TRUE(guest.ok());
  // The rewrite appends the signature word (data grows) and the detect
  // handler (a new local symbol).
  auto baseline = apps::BuildSeuGuest(apps::HardeningMode::None);
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(guest.value().data.size(), baseline.value().data.size());
  bool has_detect = false;
  for (const isa::Symbol& sym : guest.value().locals) {
    if (sym.name == "__cfcss_detect") has_detect = true;
  }
  EXPECT_TRUE(has_detect);
}

// ---- campaigns ---------------------------------------------------------------

CampaignOptions SeuOptions() {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.entry = apps::kSeuGuestEntry;
  opts.collect_state_digest = true;
  opts.collect_replays = true;
  return opts;
}

campaign::CampaignRunner MakeRunner(CampaignOptions opts) {
  return campaign::CampaignRunner(
      apps::SeuGuestMachineSetup(apps::HardeningMode::None), {}, opts);
}

/// A small sweep over registers + data with a fixed golden yardstick.
std::vector<Scenario> SmallSweep(const campaign::GoldenRun& golden,
                                 size_t samples) {
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
  campaign::SeuSweepSpec space;
  space.instants_to = golden.instructions - 1;
  space.samples = samples;
  space.seed = 3;
  space.stack = true;
  space.data = true;
  space.data_module = apps::kSeuGuestModule;
  space.data_bytes = guest.value().data.size();
  return campaign::BuildSeuSweep(space);
}

campaign::GoldenRun Golden() {
  campaign::CampaignRunner runner = MakeRunner(SeuOptions());
  Scenario golden_scenario;
  golden_scenario.name = "golden";
  CampaignReport report = runner.Run({golden_scenario});
  campaign::GoldenRun golden = campaign::GoldenFrom(report.results.front());
  EXPECT_EQ(golden.status, campaign::ScenarioStatus::Exited);
  EXPECT_GT(golden.instructions, 0u);
  return golden;
}

TEST(SeuCampaign, ReplayReproducesTheFlip) {
  campaign::GoldenRun golden = Golden();
  std::vector<Scenario> sweep = SmallSweep(golden, 16);
  campaign::CampaignRunner runner = MakeRunner(SeuOptions());
  CampaignReport report = runner.Run(sweep);
  // Every flip scenario's replay plan carries its <seu> — re-running the
  // replay must reproduce the identical outcome, digest included.
  size_t replayed = 0;
  std::vector<Scenario> replays;
  std::vector<const ScenarioResult*> originals;
  for (const ScenarioResult& r : report.results) {
    if (r.seu_landed == 0) continue;
    ASSERT_EQ(r.replay.seus.size(), 1u) << r.name;
    Scenario again;
    again.name = r.name;
    again.plan = r.replay;
    replays.push_back(std::move(again));
    originals.push_back(&r);
    ++replayed;
  }
  ASSERT_GT(replayed, 0u);
  CampaignReport second = runner.Run(replays);
  ASSERT_EQ(second.results.size(), replayed);
  for (size_t i = 0; i < replayed; ++i) {
    EXPECT_EQ(second.results[i].status, originals[i]->status);
    EXPECT_EQ(second.results[i].exit_code, originals[i]->exit_code);
    EXPECT_EQ(second.results[i].state_digest, originals[i]->state_digest);
    EXPECT_EQ(second.results[i].seu_landed, originals[i]->seu_landed);
  }
}

TEST(SeuSearch, DirectedSearchFindsAndDedupesFlips) {
  campaign::GoldenRun golden = Golden();
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
  campaign::SeuSweepSpec space;
  space.instants_to = golden.instructions - 1;
  space.seed = 3;
  space.data = true;
  space.data_module = apps::kSeuGuestModule;
  space.data_bytes = guest.value().data.size();

  campaign::CampaignRunner runner = MakeRunner(SeuOptions());
  campaign::SeuSearchOptions sopts;
  sopts.rounds = 2;
  sopts.per_round = 12;
  sopts.detect_exit_code = isa::kSeuDetectExitCode;
  campaign::SeuSearchResult found =
      campaign::SdcDirectedSearch(runner, space, golden, sopts);
  EXPECT_EQ(found.rounds_run, 2u);
  EXPECT_EQ(found.report.counts.total, found.report.verdicts.size());
  // Names are unique: the search never re-runs a flip it has seen.
  std::set<std::string> names;
  for (const campaign::SeuVerdict& v : found.report.verdicts) {
    // Strip the "seu-NNNN-" discovery-index prefix: the flip key itself
    // must be unique.
    EXPECT_TRUE(names.insert(v.name.substr(9)).second) << v.name;
  }
  // SDC scenarios carry their flip and re-classify as SDC.
  if (!found.sdc_scenarios.empty()) {
    CampaignReport again = runner.Run(found.sdc_scenarios);
    campaign::SeuCampaignReport classified = campaign::ClassifyCampaign(
        again, golden, isa::kSeuDetectExitCode);
    EXPECT_EQ(classified.counts.sdc, found.sdc_scenarios.size());
  }
}

}  // namespace
}  // namespace lfi
