// Property-based and sweep tests across module boundaries:
//   - profiler completeness on randomly generated direct-constant libraries
//   - runtime ground truth: generated binaries return what the profiler says
//   - full Table-2 sweep (all 18 libraries score exactly)
//   - end-to-end determinism of injection runs
#include <gtest/gtest.h>

#include "apps/workloads.hpp"
#include "core/controller.hpp"
#include "core/profiler.hpp"
#include "core/scenario_gen.hpp"
#include "corpus/table2_corpus.hpp"
#include "kernel/kernel_image.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace lfi {
namespace {

// ---- profiler completeness on random direct-constant libraries ----------------

class ProfilerCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfilerCompleteness, FindsExactlyTheGeneratedCodes) {
  // Libraries with only detectable codes: the profiler must find exactly
  // the actual set — no false negatives, no false positives.
  Rng rng(GetParam());
  corpus::LibrarySpec spec;
  spec.name = "librand.so";
  spec.seed = GetParam() * 31 + 7;
  int functions = 3 + static_cast<int>(rng.below(10));
  for (int i = 0; i < functions; ++i) {
    corpus::FunctionSpec fn;
    fn.name = "f" + std::to_string(i);
    fn.arg_count = 1 + static_cast<int>(rng.below(3));
    fn.filler_blocks = static_cast<int>(rng.below(5));
    std::set<int64_t> used;
    int codes = static_cast<int>(rng.below(5));
    for (int c = 0; c < codes; ++c) {
      int64_t v;
      do {
        v = -static_cast<int64_t>(1 + rng.below(100));
      } while (used.count(v));
      used.insert(v);
      fn.detectable_documented.push_back(v);
    }
    spec.functions.push_back(fn);
  }
  corpus::GeneratedLibrary lib = corpus::GenerateLibrary(spec);

  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  ws.AddModule(&lib.object);
  core::Profiler profiler(ws);
  auto profile = profiler.ProfileLibrary(lib.object);
  ASSERT_TRUE(profile.ok()) << profile.error();
  for (const auto& fn : profile.value().functions) {
    std::set<int64_t> found;
    for (const auto& ec : fn.error_codes) found.insert(ec.retval);
    EXPECT_EQ(found, lib.actual.at(fn.name)) << fn.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfilerCompleteness,
                         ::testing::Range<uint64_t>(1, 26));

// ---- runtime ground truth -------------------------------------------------------

class RuntimeGroundTruth : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuntimeGroundTruth, ProfiledCodesAreActuallyReturnable) {
  // For every profiled code of a generated function, there is a selector
  // argument under which the function really returns it in the VM.
  Rng rng(GetParam() * 977);
  corpus::LibrarySpec spec;
  spec.name = "libgt.so";
  spec.seed = GetParam();
  corpus::FunctionSpec fn;
  fn.name = "target";
  fn.arg_count = 1;
  std::set<int64_t> used;
  int codes = 1 + static_cast<int>(rng.below(4));
  for (int c = 0; c < codes; ++c) {
    int64_t v;
    do {
      v = -static_cast<int64_t>(1 + rng.below(60));
    } while (used.count(v));
    used.insert(v);
    fn.detectable_documented.push_back(v);
  }
  spec.functions.push_back(fn);
  corpus::GeneratedLibrary lib = corpus::GenerateLibrary(spec);

  // Call target(sel) for sel = 1..codes and collect returns.
  std::set<int64_t> returned;
  for (int sel = 1; sel <= codes; ++sel) {
    isa::CodeBuilder b;
    b.begin_function("main");
    b.mov_ri(isa::Reg::R1, sel);
    b.call_named("target", {isa::Reg::R1});
    b.leave_ret();
    b.end_function();
    vm::Machine machine;
    machine.Load(lib.object).value();
    machine.Load(sso::FromCodeUnit("main.so", b.Finish(), {"libgt.so"})).value();
    auto r = test::RunEntry(machine, "main");
    ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
    returned.insert(r.exit_code);
  }
  EXPECT_EQ(returned, lib.actual.at("target"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeGroundTruth,
                         ::testing::Range<uint64_t>(1, 16));

// ---- Table 2 sweep ---------------------------------------------------------------

class Table2Sweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Table2Sweep, MeasuredCountsMatchPaperExactly) {
  const corpus::Table2Entry& entry =
      corpus::Table2Reference()[GetParam()];
  corpus::GeneratedLibrary lib =
      corpus::GenerateTable2Library(entry, 42 + GetParam());
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  ws.AddModule(&lib.object);
  core::Profiler profiler(ws);
  auto profile = profiler.ProfileLibrary(lib.object);
  ASSERT_TRUE(profile.ok()) << profile.error();
  std::map<std::string, std::set<int64_t>> found;
  for (const auto& fn : profile.value().functions) {
    for (const auto& ec : fn.error_codes) found[fn.name].insert(ec.retval);
  }
  corpus::AccuracyCount score =
      corpus::ScoreAgainstDocs(lib.documentation, found);
  EXPECT_EQ(score.tp, entry.paper_tp) << entry.library;
  EXPECT_EQ(score.fn, entry.paper_fn) << entry.library;
  EXPECT_EQ(score.fp, entry.paper_fp) << entry.library;
  EXPECT_NEAR(score.accuracy() * 100, entry.paper_accuracy_pct, 1.6)
      << entry.library;
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, Table2Sweep,
                         ::testing::Range<size_t>(0, 18));

// ---- end-to-end determinism -------------------------------------------------------

class InjectionDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InjectionDeterminism, SameSeedSameLogSameOutcome) {
  auto run = [&] {
    std::vector<core::FaultProfile> profiles =
        apps::ProfileStandardLibs({libc::BuildLibc()});
    core::Plan plan = core::GenerateRandom(profiles, 0.2, GetParam());
    apps::PidginRunResult r = apps::RunPidginWithPlan(plan);
    return std::make_tuple(r.aborted, r.exit_code, r.injections,
                           r.replay.ToXml());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InjectionDeterminism,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- scheduler interaction ----------------------------------------------------------

TEST(SpawnAndWait, ParentReapsChildExitCode) {
  isa::CodeBuilder b;
  uint32_t name = 0;
  {
    std::vector<uint8_t> s;
    for (const char* p = "child_main"; *p; ++p) s.push_back(uint8_t(*p));
    s.push_back(0);
    name = b.emit_data(s);
  }
  b.begin_function("child_main");
  b.mov_ri(isa::Reg::R1, 77);
  b.push(isa::Reg::R1);
  b.call_sym("exit");
  b.add_ri(isa::Reg::SP, 8);
  b.leave_ret();
  b.end_function();
  b.begin_function("main");
  b.lea_data(isa::Reg::R1, static_cast<int32_t>(name));
  b.push(isa::Reg::R1);
  b.call_sym("spawn");
  b.add_ri(isa::Reg::SP, 8);
  b.mov_rr(isa::Reg::R1, isa::Reg::R0);  // child pid
  b.push(isa::Reg::R1);
  b.call_sym("waitpid");
  b.add_ri(isa::Reg::SP, 8);
  b.leave_ret();
  b.end_function();

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, 77);  // wait() returned the child's exit code
}

TEST(SpawnAndWait, InjectedSpawnFailureVisible) {
  isa::CodeBuilder b;
  uint32_t name = 0;
  {
    std::vector<uint8_t> s = {'x', 0};
    name = b.emit_data(s);
  }
  b.begin_function("main");
  b.lea_data(isa::Reg::R1, static_cast<int32_t>(name));
  b.push(isa::Reg::R1);
  b.call_sym("spawn");
  b.add_ri(isa::Reg::SP, 8);
  b.leave_ret();
  b.end_function();

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  core::Controller controller(machine);
  core::Plan plan;
  core::FunctionTrigger t;
  t.function = "spawn";
  t.mode = core::FunctionTrigger::Mode::CallCount;
  t.inject_call = 1;
  t.retval = -1;
  t.errno_value = E_AGAIN;
  plan.triggers.push_back(t);
  ASSERT_TRUE(controller.Install(plan, nullptr));
  auto r = test::RunEntry(machine, "main");
  EXPECT_EQ(r.exit_code, -1);
  // No child was actually created.
  EXPECT_EQ(machine.processes().size(), 1u);
}

// ---- exhaustive scenario at application level ---------------------------------------

TEST(ExhaustiveScenario, RotatesThroughAllCloseErrnos) {
  // An app that calls close(5) three times and sums the errnos it sees:
  // under the exhaustive scenario, consecutive calls must iterate EBADF,
  // EIO, EINTR (in profile order).
  isa::CodeBuilder b;
  b.begin_function("main");
  b.sub_ri(isa::Reg::SP, 16);
  b.store_i(isa::Reg::BP, -8, 0);
  for (int i = 0; i < 3; ++i) {
    b.mov_ri(isa::Reg::R1, 5);
    b.push(isa::Reg::R1);
    b.call_sym("close");
    b.add_ri(isa::Reg::SP, 8);
    b.call_sym("geterrno");
    b.load(isa::Reg::R1, isa::Reg::BP, -8);
    b.add_rr(isa::Reg::R1, isa::Reg::R0);
    b.store(isa::Reg::BP, -8, isa::Reg::R1);
  }
  b.load(isa::Reg::R0, isa::Reg::BP, -8);
  b.leave_ret();
  b.end_function();

  std::vector<core::FaultProfile> profiles =
      apps::ProfileStandardLibs({libc::BuildLibc()});
  core::Plan plan = core::GenerateExhaustive(profiles);
  // Restrict to close so geterrno isn't intercepted.
  plan.triggers.erase(
      std::remove_if(plan.triggers.begin(), plan.triggers.end(),
                     [](const core::FunctionTrigger& t) {
                       return t.function != "close";
                     }),
      plan.triggers.end());

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  core::Controller controller(machine);
  ASSERT_TRUE(controller.Install(plan, profiles));
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, E_BADF + E_IO + E_INTR);  // all three, once each
}

}  // namespace
}  // namespace lfi
