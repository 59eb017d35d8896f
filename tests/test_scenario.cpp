#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/scenario_gen.hpp"
#include "core/faultloads.hpp"
#include "core/profiler.hpp"
#include "kernel/kernel_image.hpp"
#include "libc/libc_builder.hpp"
#include "util/errno_table.hpp"

namespace lfi::core {
namespace {

// The paper's §4 example plan, verbatim in structure.
constexpr const char* kPaperPlan = R"(
<plan>
  <function name="readdir64" inject="5" retval="0"
            errno="EBADF" calloriginal="false" />
  <function name="readdir" inject="5" retval="0"
            errno="EBADF" calloriginal="false">
    <stacktrace>
      <frame>0xb824490</frame>
      <frame>refresh_files</frame>
    </stacktrace>
  </function>
  <function name="read" inject="20" calloriginal="true">
    <modify argument="3" op="sub" value="10" />
  </function>
</plan>)";

TEST(Scenario, ParsesPaperExample) {
  auto plan = Plan::FromXml(kPaperPlan);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().triggers.size(), 3u);

  const FunctionTrigger& t0 = plan.value().triggers[0];
  EXPECT_EQ(t0.function, "readdir64");
  EXPECT_EQ(t0.mode, FunctionTrigger::Mode::CallCount);
  EXPECT_EQ(t0.inject_call, 5u);
  EXPECT_EQ(t0.retval, 0);
  EXPECT_EQ(t0.errno_value, E_BADF);
  EXPECT_FALSE(t0.call_original);

  const FunctionTrigger& t1 = plan.value().triggers[1];
  ASSERT_EQ(t1.stacktrace.size(), 2u);
  EXPECT_EQ(t1.stacktrace[0].address, 0xb824490u);
  EXPECT_EQ(t1.stacktrace[1].symbol, "refresh_files");

  const FunctionTrigger& t2 = plan.value().triggers[2];
  EXPECT_TRUE(t2.call_original);
  EXPECT_FALSE(t2.retval.has_value());
  ASSERT_EQ(t2.modifications.size(), 1u);
  EXPECT_EQ(t2.modifications[0].argument, 3);
  EXPECT_EQ(t2.modifications[0].op, ArgModification::Op::Sub);
  EXPECT_EQ(t2.modifications[0].value, 10);
}

TEST(Scenario, ProbabilitySurvivesXmlRoundTripExactly) {
  // ToXml prints probabilities with %.17g — enough digits that strtod
  // recovers the exact IEEE-754 double. The old %g (6 significant digits)
  // truncated explorer-mutated probabilities, so a plan saved to a corpus
  // and reloaded was *almost* the plan that ran.
  for (double p : {0.12345678901234567, 1.0 / 3.0, 0.1 + 0.2, 1e-9,
                   0.9999999999999999}) {
    Plan plan;
    FunctionTrigger t;
    t.function = "read";
    t.mode = FunctionTrigger::Mode::Probability;
    t.probability = p;
    plan.triggers.push_back(t);
    auto parsed = Plan::FromXml(plan.ToXml());
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    ASSERT_EQ(parsed.value().triggers.size(), 1u);
    // Bit-exact, not approximately equal — memcmp-level identity.
    EXPECT_EQ(parsed.value().triggers[0].probability, p);
    // And a fixpoint: re-serializing the parsed plan changes nothing.
    EXPECT_EQ(parsed.value().ToXml(), plan.ToXml());
  }
}

TEST(Scenario, ProbabilityTriggerParses) {
  auto plan = Plan::FromXml(
      R"(<plan seed="7"><function name="read" probability="0.1" /></plan>)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().seed, 7u);
  EXPECT_EQ(plan.value().triggers[0].mode, FunctionTrigger::Mode::Probability);
  EXPECT_DOUBLE_EQ(plan.value().triggers[0].probability, 0.1);
}

TEST(Scenario, RotateModeParses) {
  auto plan = Plan::FromXml(
      R"(<plan><function name="close" mode="rotate" /></plan>)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().triggers[0].mode, FunctionTrigger::Mode::Rotate);
}

TEST(Scenario, NumericErrnoAccepted) {
  auto plan = Plan::FromXml(
      R"(<plan><function name="f" inject="1" retval="-1" errno="9" /></plan>)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().triggers[0].errno_value, 9);
}

TEST(Scenario, RejectsMalformedPlans) {
  EXPECT_FALSE(Plan::FromXml("<plan><function /></plan>").ok());
  EXPECT_FALSE(
      Plan::FromXml("<plan><function name=\"f\" mode=\"bogus\" /></plan>").ok());
  EXPECT_FALSE(Plan::FromXml(
                   "<plan><function name=\"f\" inject=\"1\" errno=\"EBOGUS\" "
                   "/></plan>")
                   .ok());
  EXPECT_FALSE(
      Plan::FromXml("<plan><function name=\"f\" inject=\"1\">"
                    "<modify argument=\"0\" op=\"set\" value=\"1\" />"
                    "</function></plan>")
          .ok());
  EXPECT_FALSE(Plan::FromXml("<notaplan />").ok());
}

// std::atof silently parsed garbage as 0.0 (a trigger that never fires)
// and was locale-dependent; the parser must reject instead.
TEST(Scenario, ProbabilityValidation) {
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" probability="zero.five" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" probability="0.5x" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" probability="1.5" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" probability="-0.1" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" probability="nan" /></plan>)").ok());
  auto plan = Plan::FromXml(
      R"(<plan><function name="f" probability="1e-3" /></plan>)");
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_DOUBLE_EQ(plan.value().triggers[0].probability, 1e-3);
}

TEST(Scenario, SeedValidation) {
  EXPECT_FALSE(Plan::FromXml(R"(<plan seed="-5" />)").ok());
  EXPECT_FALSE(Plan::FromXml(R"(<plan seed="lots" />)").ok());
  // The full uint64 range is a valid seed (no int64 wrap on the way).
  auto plan = Plan::FromXml(R"(<plan seed="18446744073709551615" />)");
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_EQ(plan.value().seed, UINT64_MAX);
}

TEST(Scenario, InjectValidation) {
  // Call counts are 1-based: inject="0" can never fire and is a plan bug.
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="0" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="-3" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="soon" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="99999999999999999999" /></plan>)").ok());
}

TEST(Scenario, RetvalAndMaxInjectionsRanges) {
  // Out-of-int64 retvals used to wrap via static_cast; now malformed.
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1" retval="9223372036854775808" /></plan>)").ok());
  auto min_rv = Plan::FromXml(
      R"(<plan><function name="f" inject="1" retval="-9223372036854775808" /></plan>)");
  ASSERT_TRUE(min_rv.ok()) << min_rv.error();
  EXPECT_EQ(min_rv.value().triggers[0].retval, INT64_MIN);
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1" maxinjections="-2" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1" maxinjections="never" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1" maxinjections="3000000000" /></plan>)").ok());
  auto unlimited = Plan::FromXml(
      R"(<plan><function name="f" inject="1" maxinjections="-1" /></plan>)");
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited.value().triggers[0].max_injections, -1);
}

TEST(Scenario, CallOriginalAndModifyValidation) {
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1" calloriginal="maybe" /></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1">)"
      R"(<modify argument="2" op="set" value="junk" /></function></plan>)").ok());
  // An argument index above the cap used to wrap through the int cast.
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1">)"
      R"(<modify argument="4294967297" op="set" value="1" /></function></plan>)").ok());
  EXPECT_FALSE(Plan::FromXml(
      R"(<plan><function name="f" inject="1">)"
      R"(<modify argument="300" op="set" value="1" /></function></plan>)").ok());
}

TEST(Scenario, ArgModificationOps) {
  auto apply = [](ArgModification::Op op, int64_t k, int64_t v) {
    ArgModification m;
    m.argument = 1;
    m.op = op;
    m.value = k;
    return m.Apply(v);
  };
  EXPECT_EQ(apply(ArgModification::Op::Add, 5, 10), 15);
  EXPECT_EQ(apply(ArgModification::Op::Sub, 5, 10), 5);
  EXPECT_EQ(apply(ArgModification::Op::Set, 5, 10), 5);
  EXPECT_EQ(apply(ArgModification::Op::And, 6, 10), 2);
  EXPECT_EQ(apply(ArgModification::Op::Or, 5, 10), 15);
  EXPECT_EQ(apply(ArgModification::Op::Xor, 6, 10), 12);
}

TEST(Scenario, ArgOpNamesRoundTrip) {
  for (auto op : {ArgModification::Op::Add, ArgModification::Op::Sub,
                  ArgModification::Op::Set, ArgModification::Op::And,
                  ArgModification::Op::Or, ArgModification::Op::Xor}) {
    auto back = ArgOpFromName(ArgOpName(op));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(ArgOpFromName("nope").has_value());
}

// ---- generators ----------------------------------------------------------------

class GenTest : public ::testing::Test {
 protected:
  static std::vector<FaultProfile> Profiles() {
    static const sso::SharedObject kernel = kernel::BuildKernelImage();
    static const sso::SharedObject libc_so = libc::BuildLibc();
    analysis::Workspace ws;
    ws.SetKernel(&kernel);
    ws.AddModule(&libc_so);
    Profiler profiler(ws);
    auto p = profiler.ProfileLibrary(libc_so);
    EXPECT_TRUE(p.ok());
    return {std::move(p).take()};
  }
};

TEST_F(GenTest, ExhaustiveCoversFunctionsWithCodes) {
  auto profiles = Profiles();
  Plan plan = GenerateExhaustive(profiles);
  std::set<std::string> names;
  for (const auto& t : plan.triggers) {
    EXPECT_EQ(t.mode, FunctionTrigger::Mode::Rotate);
    EXPECT_FALSE(t.retval.has_value());
    names.insert(t.function);
  }
  EXPECT_TRUE(names.count("close"));
  EXPECT_TRUE(names.count("read"));
  EXPECT_TRUE(names.count("malloc"));
  EXPECT_FALSE(names.count("getpid"));  // no error codes
}

TEST_F(GenTest, RandomPlanUsesProbabilityMode) {
  auto profiles = Profiles();
  Plan plan = GenerateRandom(profiles, 0.1, 99);
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_FALSE(plan.triggers.empty());
  for (const auto& t : plan.triggers) {
    EXPECT_EQ(t.mode, FunctionTrigger::Mode::Probability);
    EXPECT_DOUBLE_EQ(t.probability, 0.1);
  }
}

TEST_F(GenTest, SubsetRestrictsToNames) {
  auto profiles = Profiles();
  Plan plan = GenerateRandomSubset(profiles, {"read", "write"}, 0.5, 1);
  std::set<std::string> names;
  for (const auto& t : plan.triggers) names.insert(t.function);
  EXPECT_EQ(names, (std::set<std::string>{"read", "write"}));
}

TEST_F(GenTest, ReadyMadeFaultloads) {
  auto profiles = Profiles();
  Plan file_io = FileIoFaultload(profiles, 0.1, 1);
  Plan memory = MemoryFaultload(profiles, 0.1, 1);
  Plan socket = SocketFaultload(profiles, 0.1, 1);

  std::set<std::string> io_names, mem_names, sock_names;
  for (const auto& t : file_io.triggers) io_names.insert(t.function);
  for (const auto& t : memory.triggers) mem_names.insert(t.function);
  for (const auto& t : socket.triggers) sock_names.insert(t.function);

  EXPECT_TRUE(io_names.count("read"));
  EXPECT_TRUE(io_names.count("close"));
  EXPECT_FALSE(io_names.count("malloc"));
  EXPECT_TRUE(mem_names.count("malloc"));
  EXPECT_TRUE(mem_names.count("calloc"));
  EXPECT_FALSE(mem_names.count("read"));
  EXPECT_TRUE(sock_names.count("send"));
  EXPECT_TRUE(sock_names.count("recv"));
  EXPECT_FALSE(sock_names.count("read"));
}

TEST_F(GenTest, GeneratedPlansRoundTripThroughXml) {
  auto profiles = Profiles();
  for (const Plan& plan :
       {GenerateExhaustive(profiles), GenerateRandom(profiles, 0.2, 5)}) {
    auto parsed = Plan::FromXml(plan.ToXml());
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().triggers.size(), plan.triggers.size());
  }
}

}  // namespace
}  // namespace lfi::core
