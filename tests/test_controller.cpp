#include <gtest/gtest.h>

#include <cstring>

#include "core/controller.hpp"
#include "core/stub_codegen.hpp"
#include "test_helpers.hpp"
#include "util/errno_table.hpp"

namespace lfi::core {
namespace {

using isa::CodeBuilder;
using isa::Reg;

/// App: calls getpid() twice, returns second result * 1000 + first errno.
sso::SharedObject TwoCallApp() {
  CodeBuilder b;
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.call_named("getpid", {});
  b.store(Reg::BP, -8, Reg::R0);
  b.call_named("getpid", {});
  b.store(Reg::BP, -16, Reg::R0);
  b.call_named("geterrno", {});
  b.mov_rr(Reg::R3, Reg::R0);        // errno
  b.load(Reg::R1, Reg::BP, -16);     // second call result
  b.mul_ri(Reg::R1, 1000);
  b.add_rr(Reg::R1, Reg::R3);
  b.mov_rr(Reg::R0, Reg::R1);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"});
}

Plan OneShot(const std::string& fn, uint64_t call, int64_t retval,
             std::optional<int32_t> err, bool call_original = false) {
  Plan plan;
  FunctionTrigger t;
  t.function = fn;
  t.mode = FunctionTrigger::Mode::CallCount;
  t.inject_call = call;
  t.retval = retval;
  t.errno_value = err;
  t.call_original = call_original;
  plan.triggers.push_back(t);
  return plan;
}

TEST(Controller, InjectsRetvalOnNthCall) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 2, -55, std::nullopt), nullptr));
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  // second call returned -55; errno untouched (0).
  EXPECT_EQ(r.exit_code, -55 * 1000);
}

TEST(Controller, ReinstallReplacesPreviousPlan) {
  // A second Install without Uninstall/Reset must fully replace the first:
  // stubs from plan A pointing into its (destroyed) engine would otherwise
  // survive in the loader and dangle.
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 1, -7, std::nullopt), nullptr));
  ASSERT_TRUE(controller.Install(OneShot("geterrno", 1, -9, std::nullopt), nullptr));
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  // Plan A's getpid trigger is gone: both getpid calls pass through, and
  // only plan B's geterrno injection fires.
  ASSERT_EQ(controller.log().size(), 1u);
  EXPECT_EQ(controller.log().function_name(controller.log().records()[0]),
            "geterrno");
}

// A planned function that no module exports: a call the plan does not
// fire on fails with -1, as an unresolved call would, instead of jumping
// nowhere.
TEST(Controller, CallWithNoOriginalFails) {
  CodeBuilder b;
  b.begin_function("main");
  b.call_named("nowhere", {});
  b.leave_ret();
  b.end_function();
  vm::Machine machine;
  machine.Load(sso::FromCodeUnit("app.so", b.Finish())).value();
  Controller controller(machine);
  ASSERT_TRUE(
      controller.Install(OneShot("nowhere", 2, -5, std::nullopt), nullptr));
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, -1);
}

TEST(Controller, ErrnoSideEffectVisibleToApp) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 2, -1, E_IO), nullptr));
  auto r = test::RunEntry(machine, "main");
  // exit = -1*1000 + EIO(5)
  EXPECT_EQ(r.exit_code, -1000 + E_IO);
}

TEST(Controller, CallOriginalStillRunsFunction) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(
      OneShot("getpid", 2, -99, std::nullopt, /*call_original=*/true), nullptr));
  auto r = test::RunEntry(machine, "main");
  // Pass-through: the real getpid result (pid 1), not -99.
  EXPECT_EQ(r.exit_code, 1000);
  EXPECT_EQ(controller.log().size(), 1u);  // evaluated and logged
}

TEST(Controller, UninstallRestoresOriginals) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 1, -3, std::nullopt), nullptr));
  controller.Uninstall();
  auto r = test::RunEntry(machine, "main");
  EXPECT_EQ(r.exit_code, 1000);  // untouched
}

/// App: read(fd=7, buf, 100) then exit with read's return value.
sso::SharedObject ReadApp() {
  CodeBuilder b;
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.mov_ri(Reg::R1, 7);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 100);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("read");
  b.add_ri(Reg::SP, 24);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"});
}

TEST(Controller, ArgumentModificationFlowsToOriginal) {
  // The paper's third §4 example: subtract 10 from read's byte count and
  // pass through. The kernel then sees count=90.
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(ReadApp()).value();
  machine.kernel().add_file("/data", std::vector<uint8_t>(500, 1));
  // Replace fd 7 read by opening... simpler: the injected read is against
  // a bad fd, so modify the *count* and verify via the log; then check a
  // good-path variant below.
  Controller controller(machine);
  Plan plan;
  FunctionTrigger t;
  t.function = "read";
  t.mode = FunctionTrigger::Mode::CallCount;
  t.inject_call = 1;
  t.call_original = true;
  ArgModification m;
  m.argument = 3;
  m.op = ArgModification::Op::Sub;
  m.value = 10;
  t.modifications.push_back(m);
  plan.triggers.push_back(t);
  ASSERT_TRUE(controller.Install(plan, nullptr));
  test::RunEntry(machine, "main");
  ASSERT_EQ(controller.log().size(), 1u);
  const InjectionRecord& rec = controller.log().records()[0];
  ASSERT_EQ(rec.modified_args.size(), 1u);
  EXPECT_EQ(rec.modified_args[0].first, 3);
  EXPECT_EQ(rec.modified_args[0].second, 90);  // 100 - 10
}

TEST(Controller, LogRecordsBacktraces) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 1, -1, E_IO), nullptr));
  test::RunEntry(machine, "main");
  ASSERT_EQ(controller.log().size(), 1u);
  const auto& bt = controller.log().records()[0].backtrace;
  ASSERT_FALSE(bt.empty());
  EXPECT_EQ(bt[0], "main");
  // push bp, mov bp, sub sp, call getpid: the instant counts the call.
  EXPECT_EQ(controller.first_injection_instructions(), 4u);
}

TEST(Controller, LogTextFormat) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 2, -1, E_BADF), nullptr));
  test::RunEntry(machine, "main");
  std::string text = controller.log().ToText();
  EXPECT_NE(text.find("getpid"), std::string::npos);
  EXPECT_NE(text.find("call=2"), std::string::npos);
  EXPECT_NE(text.find("retval=-1"), std::string::npos);
  EXPECT_NE(text.find("errno=EBADF"), std::string::npos);
}

TEST(Controller, LoggingCanBeDisabled) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  ControllerOptions opts;
  opts.log_enabled = false;
  Controller controller(machine, opts);
  ASSERT_TRUE(controller.Install(OneShot("getpid", 1, -1, E_IO), nullptr));
  test::RunEntry(machine, "main");
  EXPECT_EQ(controller.log().size(), 0u);
}

TEST(Controller, ReplayReproducesSameOutcome) {
  auto run_with = [](const Plan& plan) {
    vm::Machine machine;
    machine.Load(libc::BuildLibc()).value();
    machine.Load(TwoCallApp()).value();
    Controller controller(machine);
    EXPECT_TRUE(controller.Install(plan, nullptr));
    auto r = test::RunEntry(machine, "main");
    return std::make_pair(r.exit_code, controller.GenerateReplay());
  };
  // Probabilistic plan.
  Plan random;
  random.seed = 12;
  FunctionTrigger t;
  t.function = "getpid";
  t.mode = FunctionTrigger::Mode::Probability;
  t.probability = 0.5;
  t.retval = -77;
  random.triggers.push_back(t);
  auto [exit1, replay] = run_with(random);
  // The replay uses exact call counts: same observable outcome.
  auto [exit2, replay2] = run_with(replay);
  EXPECT_EQ(exit1, exit2);
  EXPECT_EQ(replay.triggers.size(), replay2.triggers.size());
}

TEST(Controller, ReplayPlanShape) {
  InjectionLog log;
  InjectionRecord r;
  r.function = log.Intern("read");
  r.call_number = 20;
  r.has_retval = true;
  r.retval = -1;
  r.errno_value = E_INTR;
  r.call_original = false;
  log.Add(r);
  Plan replay = GenerateReplayPlan(log);
  ASSERT_EQ(replay.triggers.size(), 1u);
  EXPECT_EQ(replay.triggers[0].mode, FunctionTrigger::Mode::CallCount);
  EXPECT_EQ(replay.triggers[0].inject_call, 20u);
  EXPECT_EQ(replay.triggers[0].max_injections, 1);
  EXPECT_EQ(replay.triggers[0].retval, -1);
}

TEST(Controller, InterceptsCallsFromOtherLibraries) {
  // readdir (libc) calls read (libc) through the PLT: interposing read
  // must catch the library-internal call too (LD_PRELOAD semantics).
  CodeBuilder b;
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.mov_ri(Reg::R1, 3);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("readdir");
  b.add_ri(Reg::SP, 16);
  b.leave_ret();
  b.end_function();

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libc.so"})).value();
  Controller controller(machine);
  ASSERT_TRUE(controller.Install(OneShot("read", 1, -1, E_BADF), nullptr));
  auto r = test::RunEntry(machine, "main");
  EXPECT_EQ(r.exit_code, 0);  // readdir saw the failed read -> NULL
  EXPECT_EQ(controller.log().size(), 1u);
}

TEST(Controller, MultipleLibrariesInterposedSimultaneously) {
  // §6.4: interceptors for multiple libraries coexist.
  CodeBuilder apr;
  apr.begin_function("apr_now");
  apr.call_named("getpid", {});
  apr.leave_ret();
  apr.end_function();

  CodeBuilder b;
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.call_named("apr_now", {});
  b.store(Reg::BP, -8, Reg::R0);
  b.call_named("getpid", {});
  b.load(Reg::R1, Reg::BP, -8);
  b.mul_ri(Reg::R1, 1000);
  b.add_rr(Reg::R0, Reg::R1);
  b.leave_ret();
  b.end_function();

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(sso::FromCodeUnit("libapr.so", apr.Finish(), {"libc.so"})).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libapr.so"})).value();

  Controller controller(machine);
  Plan plan;
  FunctionTrigger t1;
  t1.function = "apr_now";
  t1.mode = FunctionTrigger::Mode::CallCount;
  t1.inject_call = 1;
  t1.retval = -5;
  plan.triggers.push_back(t1);
  FunctionTrigger t2;
  t2.function = "getpid";
  t2.mode = FunctionTrigger::Mode::CallCount;
  t2.inject_call = 1;
  t2.retval = -6;
  plan.triggers.push_back(t2);
  ASSERT_TRUE(controller.Install(plan, nullptr));
  auto r = test::RunEntry(machine, "main");
  // apr_now injected at its own boundary (-5); the app's direct getpid is
  // that stub's first call? No: apr_now was injected without calling the
  // original, so getpid's first call IS the app's -> -6.
  EXPECT_EQ(r.exit_code, -5 * 1000 + -6);
}

TEST(Controller, RotatePlanDrawsFromProfiles) {
  FaultProfile profile;
  profile.library = "libc.so";
  FunctionProfile fn;
  fn.name = "getpid";
  ProfileErrorCode ec;
  ec.retval = -1;
  ProfileSideEffect se;
  se.type = ProfileSideEffect::Type::Tls;
  se.module = "libc.so";
  se.offset = 0;
  se.values = {E_INTR};
  ec.side_effects.push_back(se);
  fn.error_codes.push_back(ec);
  profile.functions.push_back(fn);

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  Plan plan;
  FunctionTrigger t;
  t.function = "getpid";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  ASSERT_TRUE(controller.Install(plan, {profile}));
  auto r = test::RunEntry(machine, "main");
  // Both calls injected with retval -1, errno EINTR.
  EXPECT_EQ(r.exit_code, -1 * 1000 + E_INTR);
}

// Install re-arms the registered stubs only for the profile set they were
// built against: the same plan under a new profile set draws from the new
// set, as a fresh controller would.
TEST(Controller, SamePlanUnderANewProfileSetDrawsFromIt) {
  auto profile_with = [](int32_t err) {
    FaultProfile profile;
    profile.library = "libc.so";
    FunctionProfile fn;
    fn.name = "getpid";
    ProfileErrorCode ec;
    ec.retval = -1;
    ProfileSideEffect se;
    se.type = ProfileSideEffect::Type::Tls;
    se.module = "libc.so";
    se.offset = 0;
    se.values = {err};
    ec.side_effects.push_back(se);
    fn.error_codes.push_back(ec);
    profile.functions.push_back(fn);
    return std::make_shared<const std::vector<FaultProfile>>(
        std::vector<FaultProfile>{profile});
  };
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  Plan plan;
  FunctionTrigger t;
  t.function = "getpid";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  for (int32_t err : {E_INTR, E_IO}) {
    SCOPED_TRACE(err);
    machine.Reset();
    controller.Reset();
    ASSERT_TRUE(controller.Install(plan, profile_with(err)));
    auto r = test::RunEntry(machine, "main");
    EXPECT_EQ(r.exit_code, -1 * 1000 + err);
  }
}

// A campaign installs one plan per scenario against one shared profile
// set, so Install must cost O(plan): the profile index is built once per
// controller and profile set, each install does at most two string-table
// lookups per distinct planned function, and registering stubs rebuilds
// no live process's address space (stubs change resolution, not the
// module set).
TEST(Controller, InstallCostIsProportionalToThePlan) {
  FaultProfile profile;
  profile.library = "libc.so";
  for (const char* name : {"getpid", "geterrno", "read", "write", "close"}) {
    FunctionProfile fn;
    fn.name = name;
    ProfileErrorCode ec;
    ec.retval = -1;
    fn.error_codes.push_back(ec);
    profile.functions.push_back(fn);
  }
  auto profiles = std::make_shared<const std::vector<FaultProfile>>(
      std::vector<FaultProfile>{profile});

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(TwoCallApp()).value();
  Controller controller(machine);
  auto pid = machine.CreateProcess("main");
  ASSERT_TRUE(pid.ok());
  const vm::Process& proc = *machine.process(pid.value());
  const uint64_t builds = proc.address_space_builds();
  auto lookups = [&] {
    return machine.symbols().lookups() + controller.log().symbols().lookups();
  };

  Plan same = OneShot("getpid", 2, -55, std::nullopt);
  Plan renumbered = OneShot("getpid", 1, -9, std::nullopt);
  Plan different = OneShot("getpid", 1, -7, std::nullopt);
  different.triggers.push_back(
      OneShot("close", 1, -1, E_BADF).triggers.front());
  auto same_functions = [](const Plan& a, const Plan& b) {
    if (a.triggers.size() != b.triggers.size()) return false;
    for (size_t i = 0; i < a.triggers.size(); ++i) {
      if (a.triggers[i].function != b.triggers[i].function) return false;
    }
    return true;
  };
  ASSERT_TRUE(controller.Install(same, profiles));
  EXPECT_EQ(controller.profile_index_builds(), 1u);
  const Plan* previous = &same;
  for (const Plan* plan : {&different, &same, &same, &different, &same,
                           &renumbered, &same}) {
    controller.Reset();
    const uint64_t before = lookups();
    ASSERT_TRUE(controller.Install(*plan, profiles));
    if (same_functions(*plan, *previous)) {
      // Same functions in the same order: every symbol id is reused.
      EXPECT_EQ(lookups() - before, 0u);
    } else {
      // One trigger per function in both plans.
      EXPECT_LE(lookups() - before, 2 * plan->triggers.size());
    }
    EXPECT_EQ(controller.profile_index_builds(), 1u);
    previous = plan;
  }

  // The last plan's stubs work in the process that was live all along,
  // which never rebuilt its address space: the second getpid fails.
  auto info = machine.RunToCompletion(pid.value());
  ASSERT_EQ(info.state, vm::ProcState::Exited) << info.fault_message;
  EXPECT_EQ(info.exit_code, -55 * 1000);
  EXPECT_EQ(proc.address_space_builds(), builds);
  EXPECT_EQ(controller.profile_index_builds(), 1u);
}

// ---- C stub codegen ------------------------------------------------------------

TEST(StubCodegen, EmitsPaperShapedStub) {
  Plan plan;
  FunctionTrigger t;
  t.function = "readdir64";
  t.mode = FunctionTrigger::Mode::CallCount;
  t.inject_call = 5;
  t.retval = 0;
  plan.triggers.push_back(t);
  std::string src = GenerateCStubs(plan, {});
  EXPECT_NE(src.find("int64_t readdir64(void)"), std::string::npos);
  EXPECT_NE(src.find("dlsym(RTLD_NEXT, \"readdir64\")"), std::string::npos);
  EXPECT_NE(src.find("lfi_eval_trigger"), std::string::npos);
  EXPECT_NE(src.find("call_count++"), std::string::npos);
  EXPECT_NE(src.find("jmp"), std::string::npos);  // the §5.1 pass-through
}

TEST(StubCodegen, OneStubPerDistinctFunction) {
  Plan plan;
  for (const char* fn : {"read", "read", "write"}) {
    FunctionTrigger t;
    t.function = fn;
    t.mode = FunctionTrigger::Mode::Always;
    plan.triggers.push_back(t);
  }
  std::string src = GenerateCStubs(plan, {});
  size_t count = 0;
  for (size_t at = 0; (at = src.find("Interceptor for", at)) != std::string::npos;
       ++at) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(StubCodegen, AnnotatesProfiledErrorCodes) {
  FaultProfile profile;
  profile.library = "libc.so";
  FunctionProfile fn;
  fn.name = "close";
  ProfileErrorCode ec;
  ec.retval = -1;
  fn.error_codes.push_back(ec);
  profile.functions.push_back(fn);
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Always;
  plan.triggers.push_back(t);
  std::string src = GenerateCStubs(plan, {profile});
  EXPECT_NE(src.find("profiled error returns: -1"), std::string::npos);
}

TEST(StubCodegen, BoilerplateToggle) {
  Plan plan;
  FunctionTrigger t;
  t.function = "read";
  t.mode = FunctionTrigger::Mode::Always;
  plan.triggers.push_back(t);
  StubCodegenOptions opts;
  opts.emit_boilerplate = false;
  std::string src = GenerateCStubs(plan, {}, opts);
  EXPECT_EQ(src.find("#include <dlfcn.h>"), std::string::npos);
}


TEST(Controller, GlobalAndArgSideEffectsApplied) {
  // §3.2: profiles can name global and output-argument side channels; the
  // injector must apply them along with the return value. Build a library
  // whose profile (hand-written here) says: on retval -1, write 77 into
  // its global at offset 0 and into the pointer passed as argument 0.
  isa::CodeBuilder lib;
  uint32_t status_global = lib.reserve_data(8);
  lib.begin_function("dev_ioctl");
  lib.load_arg(isa::Reg::R1, 0);
  lib.mov_ri(isa::Reg::R0, 0);  // the original always succeeds
  lib.leave_ret();
  lib.end_function();

  FaultProfile profile;
  profile.library = "libdev.so";
  FunctionProfile fn;
  fn.name = "dev_ioctl";
  ProfileErrorCode ec;
  ec.retval = -1;
  ProfileSideEffect global_se;
  global_se.type = ProfileSideEffect::Type::Global;
  global_se.module = "libdev.so";
  global_se.offset = status_global;
  global_se.values = {77};
  ec.side_effects.push_back(global_se);
  ProfileSideEffect arg_se;
  arg_se.type = ProfileSideEffect::Type::Arg;
  arg_se.arg_index = 0;
  arg_se.values = {77};
  ec.side_effects.push_back(arg_se);
  fn.error_codes.push_back(ec);
  profile.functions.push_back(fn);

  // App: out = 0; dev_ioctl(&out); exit(global * 1000 + out).
  isa::CodeBuilder b;
  uint32_t out_slot = b.reserve_data(8);
  b.begin_function("main");
  b.lea_data(isa::Reg::R1, static_cast<int32_t>(out_slot));
  b.call_named("dev_ioctl", {isa::Reg::R1});
  b.lea_data(isa::Reg::R1, static_cast<int32_t>(out_slot));
  b.load(isa::Reg::R2, isa::Reg::R1, 0);  // arg side effect
  b.mov_rr(isa::Reg::R0, isa::Reg::R2);
  b.leave_ret();
  b.end_function();

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  size_t lib_idx = machine.Load(
      sso::FromCodeUnit("libdev.so", lib.Finish(), {"libc.so"})).value();
  machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {"libdev.so"})).value();
  Controller controller(machine);
  ASSERT_TRUE(
      controller.Install(OneShot("dev_ioctl", 1, -1, std::nullopt), {profile}));
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, 77);  // the output argument was written
  // The library global was written too.
  const auto& mod = *machine.loader().modules()[lib_idx];
  int64_t global_value = 0;
  memcpy(&global_value, mod.data_runtime.data() + status_global, 8);
  EXPECT_EQ(global_value, 77);
}

}  // namespace
}  // namespace lfi::core
