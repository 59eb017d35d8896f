#include <gtest/gtest.h>

#include "core/trigger_engine.hpp"
#include "util/errno_table.hpp"

namespace lfi::core {
namespace {

FunctionTrigger CallCountTrigger(const std::string& fn, uint64_t n,
                                 int64_t retval, int32_t err) {
  FunctionTrigger t;
  t.function = fn;
  t.mode = FunctionTrigger::Mode::CallCount;
  t.inject_call = n;
  t.retval = retval;
  t.errno_value = err;
  return t;
}

std::vector<FaultProfile> ProfilesWith(const std::string& fn,
                                       std::vector<int64_t> errnos,
                                       int64_t retval = -1) {
  FaultProfile p;
  p.library = "libc.so";
  FunctionProfile f;
  f.name = fn;
  ProfileErrorCode ec;
  ec.retval = retval;
  ProfileSideEffect se;
  se.type = ProfileSideEffect::Type::Tls;
  se.module = "libc.so";
  se.values = errnos;
  ec.side_effects.push_back(se);
  f.error_codes.push_back(ec);
  p.functions.push_back(f);
  return {p};
}

TEST(TriggerEngine, CallCountFiresExactlyOnce) {
  Plan plan;
  plan.triggers.push_back(CallCountTrigger("read", 3, -1, E_IO));
  TriggerEngine engine(plan, {});
  EXPECT_FALSE(engine.OnCall("read", {}));
  EXPECT_FALSE(engine.OnCall("read", {}));
  auto d = engine.OnCall("read", {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->retval, -1);
  EXPECT_EQ(d->errno_value, E_IO);
  EXPECT_FALSE(engine.OnCall("read", {}));
  EXPECT_EQ(engine.call_count("read"), 4u);
}

TEST(TriggerEngine, MaxInjectionsCapsFiring) {
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Always;
  t.retval = -1;
  t.max_injections = 2;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  EXPECT_TRUE(engine.OnCall("close", {}));
  EXPECT_TRUE(engine.OnCall("close", {}));
  EXPECT_FALSE(engine.OnCall("close", {}));
}

TEST(TriggerEngine, ProbabilityRoughlyCalibrated) {
  Plan plan;
  plan.seed = 7;
  FunctionTrigger t;
  t.function = "read";
  t.mode = FunctionTrigger::Mode::Probability;
  t.probability = 0.1;
  t.retval = -1;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  int fires = 0;
  for (int i = 0; i < 5000; ++i) fires += engine.OnCall("read", {}).has_value();
  EXPECT_NEAR(fires / 5000.0, 0.1, 0.03);
}

TEST(TriggerEngine, RotateCyclesThroughProfileCodes) {
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, ProfilesWith("close", {E_BADF, E_IO, E_INTR}));
  std::vector<int32_t> seen;
  for (int i = 0; i < 6; ++i) {
    auto d = engine.OnCall("close", {});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->retval, -1);
    ASSERT_TRUE(d->errno_value.has_value());
    seen.push_back(*d->errno_value);
  }
  // Consecutive calls iterate the codes, then wrap (§4 exhaustive).
  EXPECT_EQ(seen[0], seen[3]);
  EXPECT_EQ(seen[1], seen[4]);
  EXPECT_EQ(seen[2], seen[5]);
  EXPECT_EQ((std::set<int32_t>{seen[0], seen[1], seen[2]}),
            (std::set<int32_t>{E_BADF, E_IO, E_INTR}));
}

TEST(TriggerEngine, RandomDrawUsesProfileCodes) {
  Plan plan;
  plan.seed = 3;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Always;  // no explicit retval
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, ProfilesWith("close", {E_BADF, E_IO}));
  std::set<int32_t> seen;
  for (int i = 0; i < 50; ++i) {
    auto d = engine.OnCall("close", {});
    ASSERT_TRUE(d.has_value());
    seen.insert(*d->errno_value);
  }
  EXPECT_EQ(seen, (std::set<int32_t>{E_BADF, E_IO}));
  // A plan's errno overrides the drawn one; the retval is still drawn.
  plan.triggers[0].errno_value = E_INTR;
  TriggerEngine pinned(plan, ProfilesWith("close", {E_BADF, E_IO}));
  auto d = pinned.OnCall("close", {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->retval, -1);
  EXPECT_EQ(d->errno_value, E_INTR);
}

TEST(TriggerEngine, NoProfileNoRetvalPassesThrough) {
  Plan plan;
  FunctionTrigger t;
  t.function = "mystery";
  t.mode = FunctionTrigger::Mode::Always;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  auto d = engine.OnCall("mystery", {});
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->has_retval);
  EXPECT_TRUE(d->call_original);  // §6.4 overhead configuration
}

TEST(TriggerEngine, StackTraceConditionMatchesSymbols) {
  Plan plan;
  FunctionTrigger t = CallCountTrigger("readdir", 1, 0, E_BADF);
  FrameCondition frame;
  frame.symbol = "refresh_files";
  t.stacktrace.push_back(frame);
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  EXPECT_TRUE(engine.needs_backtrace("readdir"));

  // Wrong caller: no injection (call_count still advances).
  auto wrong = engine.OnCall("readdir", [] {
    return Backtrace{{0x1000, "other_fn"}};
  });
  EXPECT_FALSE(wrong.has_value());

  Plan plan2 = plan;
  TriggerEngine engine2(plan2, {});
  auto right = engine2.OnCall("readdir", [] {
    return Backtrace{{0x1000, "refresh_files"}, {0x2000, "main"}};
  });
  EXPECT_TRUE(right.has_value());

  // Re-armed for a plan without the condition, stubs stop collecting
  // backtraces for the function.
  Plan plain;
  plain.triggers.push_back(CallCountTrigger("readdir", 1, 0, E_BADF));
  engine.Rearm(plain);
  EXPECT_FALSE(engine.needs_backtrace("readdir"));
}

TEST(TriggerEngine, StackTraceConditionMatchesAddresses) {
  Plan plan;
  FunctionTrigger t = CallCountTrigger("readdir", 1, 0, E_BADF);
  FrameCondition f0;
  f0.address = 0xb824490;
  FrameCondition f1;
  f1.symbol = "refresh_files";
  t.stacktrace = {f0, f1};
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  auto d = engine.OnCall("readdir", [] {
    return Backtrace{{0xb824490, "helper"}, {0x99, "refresh_files"}};
  });
  EXPECT_TRUE(d.has_value());
  // One byte off at the address frame: no match.
  TriggerEngine off_by_one(plan, {});
  EXPECT_FALSE(off_by_one.OnCall("readdir", [] {
    return Backtrace{{0xb824491, "helper"}, {0x99, "refresh_files"}};
  }).has_value());
}

TEST(TriggerEngine, ShortBacktraceFailsDeepCondition) {
  Plan plan;
  FunctionTrigger t = CallCountTrigger("f", 1, -1, E_IO);
  FrameCondition a, b;
  a.symbol = "x";
  b.symbol = "y";
  t.stacktrace = {a, b};
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, {});
  EXPECT_FALSE(engine.OnCall("f", [] {
    return Backtrace{{0x1, "x"}};
  }).has_value());
}

TEST(TriggerEngine, FirstMatchingTriggerWins) {
  Plan plan;
  plan.triggers.push_back(CallCountTrigger("f", 1, -7, E_IO));
  plan.triggers.push_back(CallCountTrigger("f", 1, -8, E_BADF));
  TriggerEngine engine(plan, {});
  auto d = engine.OnCall("f", {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->retval, -7);
  EXPECT_EQ(d->trigger_index, 0u);
}

TEST(TriggerEngine, ModificationsExposedOnDecision) {
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
  TriggerEngine engine(plan, {});
  auto d = engine.OnCall("read", {});
  ASSERT_TRUE(d.has_value());
  ASSERT_NE(d->modifications, nullptr);
  ASSERT_EQ(d->modifications->size(), 1u);
  EXPECT_TRUE(d->call_original);
}

TEST(TriggerEngine, IndexedTriggersFireInPlanOrderAtSameCount) {
  // Two plain call-count triggers on the same call: the earlier plan entry
  // wins, exactly like the old bucket ordering.
  Plan plan;
  plan.triggers.push_back(CallCountTrigger("f", 4, -7, E_IO));
  plan.triggers.push_back(CallCountTrigger("f", 4, -8, E_BADF));
  plan.triggers.push_back(CallCountTrigger("f", 2, -9, E_INTR));
  TriggerEngine engine(plan, {});
  EXPECT_FALSE(engine.OnCall("f", {}));
  auto second = engine.OnCall("f", {});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->retval, -9);
  EXPECT_FALSE(engine.OnCall("f", {}));
  auto fourth = engine.OnCall("f", {});
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->retval, -7);
  EXPECT_EQ(fourth->trigger_index, 0u);
}

/// Profile with one Analyzed code (retval -1) and one Assumed code
/// (retval -2) — the shape a constprop-verified function plus a
/// documentation-derived extra takes.
std::vector<FaultProfile> MixedProvenanceProfiles(const std::string& fn) {
  FaultProfile p;
  p.library = "libc.so";
  FunctionProfile f;
  f.name = fn;
  ProfileErrorCode analyzed;
  analyzed.retval = -1;
  analyzed.provenance = Provenance::Analyzed;
  ProfileErrorCode assumed;
  assumed.retval = -2;
  f.error_codes.push_back(analyzed);
  f.error_codes.push_back(assumed);
  p.functions.push_back(f);
  return {p};
}

TEST(TriggerEngine, FeasibleOnlyDrawsOnlyAnalyzedCodes) {
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, MixedProvenanceProfiles("close"),
                       /*feasible_only=*/true);
  for (int i = 0; i < 6; ++i) {
    auto d = engine.OnCall("close", {});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->retval, -1);  // the Assumed -2 must never be drawn
  }
}

TEST(TriggerEngine, WithoutFeasibleOnlyBothProvenancesRotate) {
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, MixedProvenanceProfiles("close"));
  std::set<int64_t> retvals;
  for (int i = 0; i < 4; ++i) {
    auto d = engine.OnCall("close", {});
    ASSERT_TRUE(d.has_value());
    retvals.insert(d->retval);
  }
  EXPECT_EQ(retvals, (std::set<int64_t>{-1, -2}));
}

TEST(TriggerEngine, FeasibleOnlySparesUnanalyzedFunctions) {
  // All codes Assumed: the gate must not empty the set — unanalyzed
  // functions keep full fault coverage.
  Plan plan;
  FunctionTrigger t;
  t.function = "close";
  t.mode = FunctionTrigger::Mode::Rotate;
  plan.triggers.push_back(t);
  TriggerEngine engine(plan, ProfilesWith("close", {E_BADF, E_IO}),
                       /*feasible_only=*/true);
  auto d = engine.OnCall("close", {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->retval, -1);
}

}  // namespace
}  // namespace lfi::core
