// Explorer tests: the closed-loop-beats-open-loop acceptance check on the
// Pidgin target, crash triage and minimization end to end on a small
// crashing target, and the fitness seam. The exploration's identity across
// jobs counts, engines, snapshot modes and the fabric is test_matrix's.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "core/replay.hpp"
#include "core/scenario_gen.hpp"
#include "test_helpers.hpp"

namespace lfi::campaign {
namespace {

using test::ReaderSetup;

ExplorerReport ExploreReader(int jobs, uint64_t seed) {
  ExplorerOptions opts;
  opts.rounds = 3;
  opts.scenarios_per_round = 10;
  opts.seed = seed;
  opts.seed_probability = 0.3;
  opts.campaign.jobs = jobs;
  Explorer explorer(ReaderSetup(), apps::LibcProfiles(), opts);
  return explorer.Explore();
}

// Minimization runs on one warm oracle per worker slot, not one machine
// per crash: with more crash buckets than jobs, an in-process Explore
// builds at most `jobs` campaign machines plus min(jobs, crashes) oracles.
TEST(Explorer, MinimizationReusesOneOraclePerSlot) {
  constexpr int kJobs = 2;
  auto builds = std::make_shared<std::atomic<size_t>>(0);
  MachineSetup reader = ReaderSetup();
  MachineSetup counting = [builds, reader](vm::Machine& machine) {
    builds->fetch_add(1, std::memory_order_relaxed);
    reader(machine);
  };
  ExplorerOptions opts;
  opts.rounds = 3;
  opts.scenarios_per_round = 10;
  opts.seed = 42;
  opts.seed_probability = 0.3;
  opts.campaign.jobs = kJobs;
  Explorer explorer(counting, apps::LibcProfiles(), opts);
  ExplorerReport report = explorer.Explore();
  const size_t crashes = report.crashes.size();
  ASSERT_GT(crashes, size_t{kJobs}) << "the target must out-crash the jobs";
  EXPECT_LE(builds->load(), kJobs + std::min<size_t>(kJobs, crashes));
  for (const CrashReport& cr : report.crashes) {
    EXPECT_TRUE(cr.reproduces) << cr.signature;
  }
}

struct Minimized {
  std::string xml;
  size_t runs = 0;
  bool reproduces = false;
};

/// The explorer's per-crash minimization step, on a caller-owned oracle.
Minimized MinimizeOn(PlanRunner& oracle, const CrashReport& cr) {
  auto crashes_at_site = [&](const core::Plan& plan) {
    ScenarioResult r = oracle.Run(plan, "plan", cr.window);
    return r.status == ScenarioStatus::Crashed &&
           r.crash_site_hash == cr.site_hash;
  };
  core::MinimizeStats stats;
  core::Plan plan = core::MinimizePlan(cr.replay, crashes_at_site, &stats);
  return {plan.ToXml(), stats.oracle_runs, crashes_at_site(plan)};
}

/// Minimize every crash of `report` in order on one warm oracle, and each
/// on a fresh oracle: crash B after crash A must equal crash B alone, and
/// both must equal what the explorer reported.
void ExpectWarmOracleIsolated(const MachineSetup& setup,
                              const ExplorerReport& report,
                              CampaignOptions oracle_opts) {
  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  PlanRunner warm(setup, profiles, oracle_opts);
  for (const CrashReport& cr : report.crashes) {
    Minimized after = MinimizeOn(warm, cr);
    PlanRunner fresh_oracle(setup, profiles, oracle_opts);
    Minimized fresh = MinimizeOn(fresh_oracle, cr);
    EXPECT_EQ(after.xml, fresh.xml) << cr.signature;
    EXPECT_EQ(after.runs, fresh.runs) << cr.signature;
    EXPECT_EQ(after.reproduces, fresh.reproduces) << cr.signature;
    EXPECT_EQ(after.xml, cr.minimized.ToXml()) << cr.signature;
    EXPECT_EQ(after.runs, cr.minimize_runs) << cr.signature;
    EXPECT_EQ(after.reproduces, cr.reproduces) << cr.signature;
  }
}

// Snapshot plus fork windows on db-suite (long enough runs that mutants
// fork past the first window): crashes sit at different fault windows, so
// the warm oracle's snapshot tree grows deeper nodes from crash to crash.
TEST(Explorer, WarmOracleMinimizesLikeAFreshOneAcrossForkWindows) {
  ExplorerOptions opts;
  opts.rounds = 4;
  opts.scenarios_per_round = 16;
  opts.seed = 3;
  opts.seed_probability = 0.1;
  opts.fork_windows = true;
  opts.campaign.entry = apps::kDbTestEntry;
  opts.campaign.snapshot = true;
  Explorer explorer(apps::DbSuiteMachineSetup(), apps::LibcProfiles(), opts);
  ExplorerReport report = explorer.Explore();
  std::set<uint64_t> windows;
  for (const CrashReport& cr : report.crashes) windows.insert(cr.window);
  ASSERT_GE(windows.size(), 2u) << "crashes must span fault windows";
  ExpectWarmOracleIsolated(apps::DbSuiteMachineSetup(), report, opts.campaign);
}

/// Runs rounds through a CampaignRunner and keeps each round's population
/// and results.
class RecordingDispatch : public ScenarioDispatch {
 public:
  explicit RecordingDispatch(const CampaignOptions& campaign)
      : runner_(apps::DbSuiteMachineSetup(), apps::LibcProfiles(),
                Explorer::DispatchOptions(campaign)) {}
  CampaignReport Run(const std::vector<Scenario>& scenarios) override {
    populations.push_back(scenarios);
    CampaignReport report = runner_.Run(scenarios);
    results.push_back(report.results);
    return report;
  }
  std::vector<std::vector<Scenario>> populations;
  std::vector<std::vector<ScenarioResult>> results;

 private:
  CampaignRunner runner_;
};

// The fork window, pinned absolutely: one seed plan is admitted, and round
// 1's one slot is its mutant, which opens its fault window at the last
// quantum boundary strictly before the seed plan's first injection.
TEST(Explorer, ForkWindowIsTheQuantumFloorOfTheFirstInjection) {
  ExplorerOptions opts;
  opts.rounds = 2;
  opts.scenarios_per_round = 1;
  opts.fork_windows = true;
  opts.minimize_crashes = false;
  opts.campaign.entry = apps::kDbTestEntry;
  RecordingDispatch dispatch(opts.campaign);
  opts.dispatch = &dispatch;
  const core::Plan seed_plan =
      core::GenerateRandom(apps::LibcProfiles(), 0.02, /*seed=*/1);
  Explorer(apps::DbSuiteMachineSetup(), apps::LibcProfiles(), opts)
      .Explore({seed_plan});
  ASSERT_EQ(dispatch.populations.size(), 2u);
  const uint64_t first = dispatch.results[0][0].first_injection_instructions;
  ASSERT_GT(first, vm::Machine::kQuantum) << "the window must leave the entry";
  const uint64_t floor =
      vm::Machine::kQuantum * ((first - 1) / vm::Machine::kQuantum);
  EXPECT_EQ(dispatch.populations[1][0].warmup_instructions, floor)
      << "first injection at " << first;
}

// Every unique crash ships with a minimized reproducer that (a) is no
// larger than the replay it came from, (b) still reproduces the same
// crash site when run standalone, and (c) is 1-minimal per the oracle.
TEST(Explorer, MinimizedReproducersReproduce) {
  ExplorerReport report = ExploreReader(2, 7);
  ASSERT_FALSE(report.crashes.empty());

  auto profiles = std::make_shared<const std::vector<core::FaultProfile>>(
      apps::LibcProfiles());
  PlanRunner oracle(ReaderSetup(), profiles);
  for (const CrashReport& cr : report.crashes) {
    EXPECT_TRUE(cr.reproduces) << cr.signature;
    EXPECT_LE(cr.minimized.triggers.size(), cr.replay.triggers.size());
    EXPECT_GE(cr.minimized.triggers.size(), 1u);
    // Independent re-verification through a fresh oracle.
    ScenarioResult check = oracle.Run(cr.minimized);
    EXPECT_EQ(check.status, ScenarioStatus::Crashed) << cr.signature;
    EXPECT_EQ(check.crash_site_hash, cr.site_hash) << cr.signature;
  }
}

// Crash triage buckets deduplicate: the reader app aborts at one site, so
// however many scenarios crash, they collapse into few buckets.
TEST(Explorer, TriageDeduplicatesCrashes) {
  ExplorerReport report = ExploreReader(1, 11);
  size_t crashed_scenarios = 0;
  for (const RoundStats& rs : report.rounds) crashed_scenarios += rs.crashes;
  ASSERT_GT(crashed_scenarios, 1u);
  ASSERT_FALSE(report.crashes.empty());
  EXPECT_LT(report.crashes.size(), crashed_scenarios);
  size_t bucketed = 0;
  for (const CrashReport& cr : report.crashes) bucketed += cr.count;
  EXPECT_EQ(bucketed, crashed_scenarios);
}

// The union coverage never shrinks across rounds, and winners are exactly
// the scenarios that grew it.
TEST(Explorer, UnionCoverageIsMonotone) {
  ExplorerReport report = ExploreReader(2, 3);
  size_t prev = 0;
  for (const RoundStats& rs : report.rounds) {
    EXPECT_GE(rs.union_offsets, prev);
    EXPECT_EQ(rs.union_offsets, prev + rs.new_offsets);
    prev = rs.union_offsets;
  }
  EXPECT_EQ(report.union_offsets(), prev);
}

TEST(Fitness, ParseAndName) {
  EXPECT_EQ(ParseFitnessKind("coverage"), FitnessKind::Coverage);
  EXPECT_EQ(ParseFitnessKind("cfg-distance"), FitnessKind::CfgDistance);
  EXPECT_FALSE(ParseFitnessKind("afl").has_value());
  EXPECT_STREQ(FitnessKindName(FitnessKind::Coverage), "coverage");
  EXPECT_STREQ(FitnessKindName(FitnessKind::CfgDistance), "cfg-distance");
}

// The RNG-stream contract behind the seam: CoverageFitness consumes
// exactly the one below() the pre-seam explorer drew, CfgDistanceFitness
// exactly two — in both cases independent of scores, so the mutation
// stream after parent selection stays aligned.
TEST(Fitness, SelectParentDrawCountIsFixed) {
  CoverageFitness cov;
  Rng a(123), b(123);
  EXPECT_EQ(cov.SelectParent(7, a), b.below(7));
  EXPECT_EQ(a.next(), b.next());  // streams still aligned afterwards

  CfgDistanceFitness directed(ReaderSetup());
  Rng c(123), d(123);
  size_t picked = directed.SelectParent(7, c);
  uint64_t x = d.below(7);
  uint64_t y = d.below(7);
  // No BeginRound yet: the tournament falls back to the raw rank.
  EXPECT_EQ(picked, std::min(x, y));
  EXPECT_EQ(c.next(), d.next());
}

// CFG-distance scoring prefers corpus members whose coverage sits near
// (here: on) uncovered error-handling blocks.
TEST(Fitness, CfgDistanceScoresProximityToErrorBlocks) {
  CfgDistanceFitness fitness(ReaderSetup());
  // Member 1 covers the reader app wall to wall (including its abort
  // guard's failure block); member 0 covers nothing. Order chosen so the
  // ranking is by score, not index.
  vm::CoverageBitmap everything(1 << 14);
  for (uint32_t off = 0; off < everything.size_bits(); ++off) {
    everything.Set(off);
  }
  std::map<std::string, vm::CoverageBitmap> full;
  full["readerapp.so"] = everything;
  std::vector<std::map<std::string, vm::CoverageBitmap>> corpus;
  corpus.push_back({});
  corpus.push_back(full);
  fitness.BeginRound(corpus, {});  // empty union: every error block counts
  ASSERT_EQ(fitness.scores().size(), 2u);
  EXPECT_GT(fitness.scores()[1], 0.0);
  EXPECT_EQ(fitness.scores()[0], 0.0);

  // The tournament favors rank 0 (the scorer) 3:1 for a corpus of two.
  Rng rng(5);
  size_t high_scorer_picks = 0;
  for (int i = 0; i < 200; ++i) {
    if (fitness.SelectParent(2, rng) == 1) ++high_scorer_picks;
  }
  EXPECT_GT(high_scorer_picks, 100u);
  EXPECT_LT(high_scorer_picks, 200u);  // low scorers still reproduce

  // A block scores 1/(1 + distance): main's entry block alone sits at
  // least one edge from the abort guard, so it scores below one.
  vm::CoverageBitmap entry(1 << 14);
  entry.Set(0);
  fitness.BeginRound({{{"readerapp.so", entry}}}, {});
  EXPECT_GT(fitness.scores()[0], 0.0);
  EXPECT_LT(fitness.scores()[0], 1.0);
}

// Acceptance (ISSUE 3): on the Pidgin target, 3 explorer rounds reach
// strictly higher merged coverage than a one-shot GenerateRandom campaign
// with the same total scenario budget and seed — and every reported crash
// ships with a minimized replay plan that still reproduces it.
TEST(Explorer, BeatsOneShotRandomOnPidginAtEqualBudget) {
  constexpr size_t kRounds = 3;
  constexpr size_t kBudget = 12;
  constexpr uint64_t kSeed = 1;
  constexpr double kP = 0.1;
  const std::vector<core::FaultProfile>& profiles = apps::LibcProfiles();

  // Open loop: one campaign of rounds*budget independently-seeded random
  // scenarios.
  std::vector<Scenario> one_shot_set;
  for (size_t i = 0; i < kRounds * kBudget; ++i) {
    Scenario s;
    s.name = "one-shot-" + std::to_string(i);
    s.plan = core::GenerateRandom(profiles, kP, DeriveSeed(kSeed, i));
    one_shot_set.push_back(std::move(s));
  }
  CampaignOptions copts;
  copts.jobs = 2;
  copts.entry = apps::kPidginEntry;
  copts.track_coverage = true;
  CampaignRunner one_shot_runner(apps::PidginMachineSetup(), profiles, copts);
  CampaignReport one_shot = one_shot_runner.Run(one_shot_set);
  size_t one_shot_union = 0;
  for (const auto& [mod, bitmap] : one_shot.coverage) {
    one_shot_union += bitmap.Count();
  }
  ASSERT_GT(one_shot_union, 0u);

  // Closed loop: same budget, same seed, coverage-guided.
  ExplorerOptions eopts;
  eopts.rounds = kRounds;
  eopts.scenarios_per_round = kBudget;
  eopts.seed = kSeed;
  eopts.seed_probability = kP;
  eopts.campaign.jobs = 2;
  eopts.campaign.entry = apps::kPidginEntry;
  Explorer explorer(apps::PidginMachineSetup(), profiles, eopts);
  ExplorerReport evolved = explorer.Explore();

  EXPECT_GT(evolved.union_offsets(), one_shot_union)
      << "coverage-guided exploration must beat the open loop at equal "
         "budget";

  // The hunt must find the resolver bug, and its reproducer must stand.
  ASSERT_FALSE(evolved.crashes.empty());
  auto oracle_profiles =
      std::make_shared<const std::vector<core::FaultProfile>>(profiles);
  CampaignOptions oracle_opts;
  oracle_opts.entry = apps::kPidginEntry;
  PlanRunner oracle(apps::PidginMachineSetup(), oracle_profiles, oracle_opts);
  for (const CrashReport& cr : evolved.crashes) {
    EXPECT_TRUE(cr.reproduces) << cr.signature;
    ScenarioResult check = oracle.Run(cr.minimized);
    EXPECT_EQ(check.status, ScenarioStatus::Crashed) << cr.signature;
    EXPECT_EQ(check.crash_site_hash, cr.site_hash) << cr.signature;
  }
}

}  // namespace
}  // namespace lfi::campaign
