// End-to-end pipeline tests: profile -> generate scenario -> synthesize
// stubs -> run under injection -> log -> replay (the Figure 1 / Figure 3
// architecture exercised as a whole).
#include <gtest/gtest.h>

#include "apps/workloads.hpp"
#include "core/controller.hpp"
#include "core/faultloads.hpp"
#include "core/profiler.hpp"
#include "core/scenario_gen.hpp"
#include "kernel/kernel_image.hpp"
#include "test_helpers.hpp"
#include "util/errno_table.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;

/// A file-copy utility with a deliberate bug: the read() result is not
/// checked before being used as the write length.
sso::SharedObject BuggyCopyApp() {
  CodeBuilder b;
  uint32_t src = b.emit_data({'/', 's', 'r', 'c', 0});
  uint32_t dst = b.emit_data({'/', 'd', 's', 't', 0});
  uint32_t buf = b.reserve_data(256);
  b.begin_function("main");
  b.sub_ri(Reg::SP, 32);
  // in = open("/src", O_RDONLY)
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(src));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -8, Reg::R0);
  // out = open("/dst", O_CREAT)
  b.mov_ri(Reg::R2, libc::O_CREAT);
  b.lea_data(Reg::R1, static_cast<int32_t>(dst));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -16, Reg::R0);
  // n = read(in, buf, 128)  -- result NOT checked (the bug)
  b.load(Reg::R1, Reg::BP, -8);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 128);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("read");
  b.add_ri(Reg::SP, 24);
  b.store(Reg::BP, -24, Reg::R0);
  // write(out, buf, n): with injected read -> n = -1 -> huge size_t-like
  // write; our app "asserts" n >= 0 by aborting otherwise, emulating the
  // memcpy crash a real program would hit.
  auto ok = b.new_label();
  b.load(Reg::R1, Reg::BP, -24);
  b.cmp_ri(Reg::R1, 0);
  b.jge(ok);
  b.call_sym("abort");
  b.bind(ok);
  b.load(Reg::R1, Reg::BP, -16);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.load(Reg::R3, Reg::BP, -24);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("write");
  b.add_ri(Reg::SP, 24);
  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("copytool.so", b.Finish(), {"libc.so"});
}

class PipelineTest : public ::testing::Test {
 protected:
  static std::vector<core::FaultProfile> LibcProfiles() {
    return apps::ProfileStandardLibs({libc::BuildLibc()});
  }

  static test::RunResult RunUnder(const core::Plan& plan,
                                  core::Controller** out = nullptr) {
    static std::unique_ptr<core::Controller> controller;
    auto machine = std::make_unique<vm::Machine>();
    machine->Load(libc::BuildLibc()).value();
    machine->Load(BuggyCopyApp()).value();
    machine->kernel().add_file("/src", std::vector<uint8_t>(100, 'a'));
    controller = std::make_unique<core::Controller>(*machine);
    EXPECT_TRUE(controller->Install(plan, LibcProfiles()));
    auto r = test::RunEntry(*machine, "main");
    if (out) *out = controller.get();
    keeper_ = std::move(machine);
    return r;
  }

  static inline std::unique_ptr<vm::Machine> keeper_;
};

TEST_F(PipelineTest, CleanRunWithEmptyPlan) {
  core::Plan empty;
  auto r = RunUnder(empty);
  EXPECT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, 0);
}

TEST_F(PipelineTest, ProfileDrivenInjectionExposesUncheckedRead) {
  // Target the read with a profile-declared fault: retval -1 + EINTR. The
  // unchecked-read bug turns it into SIGABRT.
  core::Plan plan;
  core::FunctionTrigger t;
  t.function = "read";
  t.mode = core::FunctionTrigger::Mode::CallCount;
  t.inject_call = 1;
  t.retval = -1;
  t.errno_value = E_INTR;
  plan.triggers.push_back(t);
  core::Controller* controller = nullptr;
  auto r = RunUnder(plan, &controller);
  EXPECT_EQ(r.state, vm::ProcState::Faulted);
  EXPECT_EQ(r.signal, vm::Signal::Abort);
  ASSERT_EQ(controller->log().size(), 1u);
  EXPECT_EQ(controller->log().function_name(controller->log().records()[0]),
            "read");
}

TEST_F(PipelineTest, ExhaustiveScenarioFindsTheBugToo) {
  core::Plan plan = core::GenerateExhaustive(LibcProfiles());
  auto r = RunUnder(plan);
  // Exhaustive injection fails the very first open/read: either the app
  // exits on the guarded paths or hits the abort; it must not run clean
  // to a normal copy.
  EXPECT_TRUE(r.state == vm::ProcState::Faulted ||
              r.exit_code != 0 ||
              keeper_->kernel().file_contents("/dst").empty());
}

TEST_F(PipelineTest, RandomScenarioEventuallyAborts) {
  bool aborted = false;
  for (uint64_t seed = 1; seed <= 30 && !aborted; ++seed) {
    core::Plan plan = core::GenerateRandomSubset(LibcProfiles(), {"read"},
                                                 0.5, seed);
    auto r = RunUnder(plan);
    aborted = r.state == vm::ProcState::Faulted &&
              r.signal == vm::Signal::Abort;
  }
  EXPECT_TRUE(aborted);
}

TEST_F(PipelineTest, ReplayScriptReproducesInjectionSequence) {
  core::Plan plan = core::GenerateRandomSubset(LibcProfiles(), {"read"},
                                               0.9, 3);
  core::Controller* first = nullptr;
  auto r1 = RunUnder(plan, &first);
  ASSERT_GT(first->log().size(), 0u);
  std::vector<core::InjectionRecord> original = first->log().records();
  // Resolve names now: ids are log-local, and the next RunUnder replaces
  // the controller (and its log's interner).
  std::vector<std::string> original_names;
  for (const core::InjectionRecord& r : original) {
    original_names.push_back(first->log().function_name(r));
  }

  core::Plan replay = first->GenerateReplay();
  core::Controller* second = nullptr;
  auto r2 = RunUnder(replay, &second);
  EXPECT_EQ(r1.state, r2.state);
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  ASSERT_EQ(second->log().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(second->log().function_name(second->log().records()[i]),
              original_names[i]);
    EXPECT_EQ(second->log().records()[i].call_number,
              original[i].call_number);
    EXPECT_EQ(second->log().records()[i].retval, original[i].retval);
  }
}

TEST_F(PipelineTest, FaultloadsDriveInjectionsThroughProfiles) {
  core::Plan plan = core::FileIoFaultload(LibcProfiles(), 1.0, 5);
  core::Controller* controller = nullptr;
  auto r = RunUnder(plan, &controller);
  (void)r;
  ASSERT_GT(controller->log().size(), 0u);
  // Every injected errno must come from the profile of the function.
  auto profiles = LibcProfiles();
  for (const auto& rec : controller->log().records()) {
    if (!rec.errno_value) continue;
    const std::string& name = controller->log().function_name(rec);
    const core::FunctionProfile* fn = profiles[0].function(name);
    ASSERT_NE(fn, nullptr) << name;
    bool legal = false;
    for (const auto& [rv, err] : fn->injectables()) {
      legal |= rv == rec.retval && err && *err == *rec.errno_value;
    }
    EXPECT_TRUE(legal) << name << " errno " << ErrnoName(*rec.errno_value);
  }
}

TEST_F(PipelineTest, StackTraceConditionedInjection) {
  // Only inject the read() reached from main (our only caller) — verifies
  // the backtrace plumbing end to end.
  core::Plan plan;
  core::FunctionTrigger t;
  t.function = "read";
  t.mode = core::FunctionTrigger::Mode::CallCount;
  t.inject_call = 1;
  t.retval = -1;
  t.errno_value = E_IO;
  core::FrameCondition frame;
  frame.symbol = "main";
  t.stacktrace.push_back(frame);
  plan.triggers.push_back(t);
  auto r = RunUnder(plan);
  EXPECT_EQ(r.signal, vm::Signal::Abort);  // condition matched -> injected

  core::Plan wrong = plan;
  wrong.triggers[0].stacktrace[0].symbol = "not_main";
  auto r2 = RunUnder(wrong);
  EXPECT_EQ(r2.state, vm::ProcState::Exited);  // no injection
}

}  // namespace
}  // namespace lfi
