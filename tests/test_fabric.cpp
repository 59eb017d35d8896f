// Campaign fabric integration tests: the distributed invariance story.
//
// Every test here asserts the same thing from a different angle: a
// campaign (or exploration) fanned out across worker *processes* — with
// batching, pipelining, worker death, retries, and local fallback in play —
// produces results bit-identical to a single in-process run. The fabric
// may change how long things take and where they execute; it may not
// change one byte of what comes back.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"
#include "isa/codebuilder.hpp"
#include "libc/libc_builder.hpp"
#include "serve/coordinator.hpp"
#include "serve/worker.hpp"
#include "serve/wire.hpp"

namespace lfi::serve {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::Scenario;
using campaign::ScenarioResult;
using isa::CodeBuilder;
using isa::Reg;

/// The classic LFI victim (same shape as test_campaign's): open /cfg,
/// read 64 bytes unchecked, abort on a negative count.
sso::SharedObject BuildReaderApp() {
  CodeBuilder b;
  uint32_t path = b.emit_data({'/', 'c', 'f', 'g', 0});
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -8, Reg::R0);
  b.load(Reg::R1, Reg::BP, -8);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 64);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("read");
  b.add_ri(Reg::SP, 24);
  auto ok = b.new_label();
  b.cmp_ri(Reg::R0, 0);
  b.jge(ok);
  b.call_sym("abort");
  b.bind(ok);
  b.load(Reg::R1, Reg::BP, -8);
  b.push(Reg::R1);
  b.call_sym("close");
  b.add_ri(Reg::SP, 8);
  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("readerapp.so", b.Finish(), {libc::kLibcName});
}

/// The serializable target both sides of the fabric build machines from.
TargetSpec ReaderSpec() {
  TargetSpec spec;
  spec.modules.push_back(libc::BuildLibc().Serialize());
  spec.modules.push_back(BuildReaderApp().Serialize());
  spec.files.emplace_back("/cfg", std::vector<uint8_t>(64, 'x'));
  return spec;
}

CampaignOptions BaseOptions() {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  return opts;
}

std::vector<Scenario> RandomScenarios(size_t count, double p, uint64_t base) {
  const std::vector<core::FaultProfile>& profiles = apps::LibcProfiles();
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    Scenario s;
    s.name = "s" + std::to_string(i);
    s.plan = core::GenerateRandom(profiles, p, campaign::DeriveSeed(base, i));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// The in-process ground truth every fabric run is compared against.
CampaignReport InProcessBaseline(const std::vector<Scenario>& scenarios,
                                 CampaignOptions opts) {
  auto setup = MakeSetup(ReaderSpec());
  EXPECT_TRUE(setup.ok());
  campaign::CampaignRunner runner(std::move(setup).take(),
                                  apps::LibcProfiles(), opts);
  return runner.Run(scenarios);
}

/// Full determinism-relevant comparison (timing and restore telemetry are
/// explicitly not part of the identity contract). Includes the fields the
/// explorer consumes: per-scenario bitmaps, replays, fork windows.
void ExpectSameResults(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const ScenarioResult& ra = a.results[i];
    const ScenarioResult& rb = b.results[i];
    EXPECT_EQ(ra.index, rb.index) << "scenario " << i;
    EXPECT_EQ(ra.name, rb.name) << "scenario " << i;
    EXPECT_EQ(ra.status, rb.status) << "scenario " << i;
    EXPECT_EQ(ra.exit_code, rb.exit_code) << "scenario " << i;
    EXPECT_EQ(ra.signal, rb.signal) << "scenario " << i;
    EXPECT_EQ(ra.fault_message, rb.fault_message) << "scenario " << i;
    EXPECT_EQ(ra.injections, rb.injections) << "scenario " << i;
    EXPECT_EQ(ra.instructions, rb.instructions) << "scenario " << i;
    EXPECT_EQ(ra.covered_offsets, rb.covered_offsets) << "scenario " << i;
    EXPECT_EQ(ra.covered_by_module, rb.covered_by_module) << "scenario " << i;
    EXPECT_EQ(ra.coverage, rb.coverage) << "scenario " << i;
    EXPECT_EQ(ra.fault_frames, rb.fault_frames) << "scenario " << i;
    EXPECT_EQ(ra.crash_site_hash, rb.crash_site_hash) << "scenario " << i;
    EXPECT_EQ(ra.crash_hash, rb.crash_hash) << "scenario " << i;
    EXPECT_EQ(ra.replay.ToXml(), rb.replay.ToXml()) << "scenario " << i;
    EXPECT_EQ(ra.first_injection_instructions,
              rb.first_injection_instructions)
        << "scenario " << i;
    EXPECT_EQ(ra.snapshot_fallback, rb.snapshot_fallback) << "scenario " << i;
  }
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.setup_errors, b.setup_errors);
  EXPECT_EQ(a.snapshot_fallbacks, b.snapshot_fallbacks);
  EXPECT_EQ(a.total_injections, b.total_injections);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
}

void ReapWorker(const LocalWorker& worker) {
  ::waitpid(worker.pid, nullptr, WNOHANG);
}

// Coordinator + 1, 2 and 4 real worker processes. 32 scenarios cut into
// several guided batches (16/8/4/4 on one worker, more on several), so
// every connection pipelines multiple dispatches: byte-identical to
// --jobs 1 for every worker count.
class LocalWorkersMatchInProcess : public ::testing::TestWithParam<size_t> {};

TEST_P(LocalWorkersMatchInProcess, Run) {
  std::vector<Scenario> scenarios = RandomScenarios(32, 0.3, 42);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());
  // The set must exercise real injection paths for identity to mean much.
  ASSERT_GT(baseline.total_injections, 0u);
  ASSERT_GT(baseline.crashes, 0u);

  std::vector<LocalWorker> workers;
  for (size_t i = 0; i < GetParam(); ++i) {
    auto worker = SpawnLocalWorker();
    ASSERT_TRUE(worker.ok()) << worker.error();
    workers.push_back(std::move(worker).take());
  }
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  for (const LocalWorker& worker : workers) {
    ASSERT_TRUE(fabric.AddWorkerFd(worker.fd, "local").ok());
  }
  ASSERT_EQ(fabric.live_workers(), GetParam());

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_GE(fabric.stats().batches_dispatched, 4u);
  EXPECT_EQ(fabric.stats().scenarios_remote, scenarios.size());
  EXPECT_EQ(fabric.stats().scenarios_local, 0u);
  EXPECT_EQ(fabric.stats().workers_lost, 0u);
  for (const LocalWorker& worker : workers) ReapWorker(worker);
}

INSTANTIATE_TEST_SUITE_P(Fabric, LocalWorkersMatchInProcess,
                         ::testing::Values(1, 2, 4),
                         ::testing::PrintToStringParamName());

// The worker pool persists across Run calls (explorer rounds): a second
// campaign through the same coordinator is identical to its own baseline.
TEST(Fabric, RepeatedRunsReuseWarmWorkers) {
  std::vector<Scenario> first = RandomScenarios(12, 0.3, 7);
  std::vector<Scenario> second = RandomScenarios(12, 0.4, 8);
  auto w1 = SpawnLocalWorker();
  ASSERT_TRUE(w1.ok()) << w1.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "w1").ok());
  ExpectSameResults(InProcessBaseline(first, BaseOptions()),
                    fabric.Run(first));
  ExpectSameResults(InProcessBaseline(second, BaseOptions()),
                    fabric.Run(second));
  EXPECT_EQ(fabric.stats().workers_lost, 0u);
  ReapWorker(w1.value());
}

// One worker hard-closes its socket mid-campaign (the deterministic
// stand-in for kill -9); its in-flight batches must be re-run on the
// surviving worker and the merged report must not change a byte. Every
// batch is at least 4 scenarios, so the dying worker dies in its first
// one; the survivor answers slowly, so the dying worker's thread claims
// batches before the survivor could finish the round alone.
TEST(Fabric, AbortingWorkerShardIsRetriedElsewhere) {
  std::vector<Scenario> scenarios = RandomScenarios(32, 0.3, 42);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());

  WorkerConfig dying;
  dying.abort_after_scenarios = 4;
  WorkerConfig slow;
  slow.batch_delay_ms = 20;
  auto w1 = SpawnLocalWorker(dying);
  auto w2 = SpawnLocalWorker(slow);
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "dying").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "healthy").ok());

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_GE(fabric.stats().workers_lost, 1u);
  EXPECT_GE(fabric.stats().batches_retried, 1u);
  EXPECT_EQ(fabric.stats().scenarios_local, 0u);
  ReapWorker(w1.value());
  ReapWorker(w2.value());
}

// An actual SIGKILL, not the cooperative hook: the coordinator sees the
// dead socket, drops the worker, and the survivor covers everything. The
// survivor answers slowly, so the dead worker's thread claims a batch
// before the survivor could finish the round alone.
TEST(Fabric, SigkilledWorkerProcessDoesNotChangeTheReport) {
  std::vector<Scenario> scenarios = RandomScenarios(16, 0.3, 13);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());

  WorkerConfig slow;
  slow.batch_delay_ms = 20;
  auto w1 = SpawnLocalWorker();
  auto w2 = SpawnLocalWorker(slow);
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "doomed").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "survivor").ok());

  ASSERT_EQ(::kill(w1.value().pid, SIGKILL), 0);
  ::waitpid(w1.value().pid, nullptr, 0);

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_GE(fabric.stats().workers_lost, 1u);
  ReapWorker(w2.value());
}

// A batch is requeued only when its worker fails, so a thread that went
// idle must still be there to take it. Of 32 scenarios, guided batches
// of 8/6/5/4 go out first, two to each worker. The fast worker then runs
// everything else and goes idle. The slow worker answers its first batch
// (at most 8 scenarios) only after 200 ms and dies after running its
// second (at least 9 in all): the idle fast worker must re-run that batch
// rather than leave it to the local fallback.
TEST(Fabric, IdleSurvivorTakesRequeuedWork) {
  std::vector<Scenario> scenarios = RandomScenarios(32, 0.3, 42);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());

  WorkerConfig fast;
  fast.batch_delay_ms = 5;
  WorkerConfig slow;
  slow.batch_delay_ms = 200;
  slow.abort_after_scenarios = 9;
  auto w1 = SpawnLocalWorker(fast);
  auto w2 = SpawnLocalWorker(slow);
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "fast").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "slow").ok());

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_EQ(fabric.stats().workers_lost, 1u);
  EXPECT_GE(fabric.stats().batches_retried, 1u);
  EXPECT_EQ(fabric.stats().scenarios_local, 0u);
  EXPECT_EQ(fabric.stats().scenarios_remote, scenarios.size());
  ReapWorker(w1.value());
  ReapWorker(w2.value());
}

// Two batches in flight on a connection whose socket buffers are far
// smaller than a frame: the worker blocks writing a large reply while the
// coordinator still has a large batch to write. The coordinator keeps
// reading while it writes, so the pair cannot deadlock. 96 scenarios on
// one worker cut a first guided batch of 48, then one of 24.
TEST(Fabric, FramesLargerThanSocketBuffersDoNotDeadlock) {
  std::vector<Scenario> scenarios = RandomScenarios(96, 0.3, 77);
  for (Scenario& s : scenarios) {
    // Triggers that never fire: they only make every RunBatch frame big.
    for (int i = 0; i < 200; ++i) {
      core::FunctionTrigger t;
      t.function = "close";
      t.mode = core::FunctionTrigger::Mode::CallCount;
      t.inject_call = 1'000'000 + static_cast<uint64_t>(i);
      core::FrameCondition frame;
      frame.symbol = "main";
      t.stacktrace.push_back(frame);
      s.plan.triggers.push_back(t);
    }
  }
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (int fd : fds) {
    int size = 4096;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size)), 0);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size)), 0);
  }
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    WorkerServer worker;
    (void)worker.ServeConnection(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);

  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(fds[0], "tiny-buffers").ok());
  // Both directions' frames dwarf the buffers.
  BatchMsg msg;
  BatchResultMsg reply;
  msg.indices.assign(48, 0);
  msg.scenarios.assign(scenarios.begin(), scenarios.begin() + 48);
  reply.results.assign(baseline.results.begin(),
                       baseline.results.begin() + 48);
  ASSERT_GT(EncodeBatch(msg).size(), 16u * 4096u);
  ASSERT_GT(EncodeBatchResult(reply).size(), 4u * 4096u);

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_EQ(fabric.stats().workers_lost, 0u);
  EXPECT_EQ(fabric.stats().scenarios_remote, scenarios.size());
  ::waitpid(pid, nullptr, WNOHANG);
}

// Guided batch sizes cut the campaign into batches that
// cover every index exactly once: a gap would fall back to the local
// runner, an overlap would count scenarios twice.
TEST(Fabric, GuidedBatchesPlaceEveryIndexOnce) {
  std::vector<std::vector<Scenario>> sets;
  std::vector<CampaignReport> baselines;
  for (size_t n : {size_t{1}, size_t{7}, size_t{128}, size_t{1000}}) {
    sets.push_back(RandomScenarios(n, 0.3, 1000 + n));
    baselines.push_back(InProcessBaseline(sets.back(), BaseOptions()));
  }
  for (size_t workers = 1; workers <= 3; ++workers) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::vector<LocalWorker> spawned;
    for (size_t w = 0; w < workers; ++w) {
      auto worker = SpawnLocalWorker();
      ASSERT_TRUE(worker.ok()) << worker.error();
      spawned.push_back(worker.value());
    }
    FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(),
                             BaseOptions());
    for (const LocalWorker& worker : spawned) {
      ASSERT_TRUE(fabric.AddWorkerFd(worker.fd, "w").ok());
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      SCOPED_TRACE("scenarios " + std::to_string(sets[i].size()));
      size_t remote = fabric.stats().scenarios_remote;
      ExpectSameResults(baselines[i], fabric.Run(sets[i]));
      EXPECT_EQ(fabric.stats().scenarios_remote - remote, sets[i].size());
    }
    EXPECT_EQ(fabric.stats().scenarios_local, 0u);
    EXPECT_EQ(fabric.stats().workers_lost, 0u);
    for (const LocalWorker& worker : spawned) ReapWorker(worker);
  }
}

// No workers at all: the coordinator is still a valid ScenarioDispatch —
// everything runs on its in-process fallback runner, identically.
TEST(Fabric, NoWorkersDegradesToInProcess) {
  std::vector<Scenario> scenarios = RandomScenarios(16, 0.3, 99);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  EXPECT_EQ(fabric.live_workers(), 0u);
  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_EQ(fabric.stats().scenarios_local, scenarios.size());
  EXPECT_EQ(fabric.stats().scenarios_remote, 0u);
}

// Every worker dies and dispatch attempts run out: the unfinished tail
// falls back to the local runner. Completion is guaranteed, identity too.
TEST(Fabric, AllWorkersDeadFallsBackToLocalTail) {
  std::vector<Scenario> scenarios = RandomScenarios(24, 0.3, 5);
  CampaignReport baseline = InProcessBaseline(scenarios, BaseOptions());

  WorkerConfig dying;
  dying.abort_after_scenarios = 2;
  auto w1 = SpawnLocalWorker(dying);
  ASSERT_TRUE(w1.ok()) << w1.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), BaseOptions());
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "dying").ok());

  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  EXPECT_EQ(fabric.stats().workers_lost, 1u);
  EXPECT_GT(fabric.stats().scenarios_local, 0u);
  EXPECT_EQ(fabric.live_workers(), 0u);
  ReapWorker(w1.value());
}

// Snapshot execution through the fabric: worker machines warm their own
// snapshot trees; reports stay identical to the in-process snapshot run
// (which is itself identical to cold — the existing invariant chain).
TEST(Fabric, SnapshotExecutionIsIdenticalThroughTheFabric) {
  CampaignOptions opts = BaseOptions();
  opts.snapshot = true;
  opts.warmup_instructions = 64;
  std::vector<Scenario> scenarios = RandomScenarios(16, 0.3, 21);
  CampaignReport baseline = InProcessBaseline(scenarios, opts);

  auto w1 = SpawnLocalWorker();
  auto w2 = SpawnLocalWorker();
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(), opts);
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "w1").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "w2").ok());
  CampaignReport distributed = fabric.Run(scenarios);
  ExpectSameResults(baseline, distributed);
  ReapWorker(w1.value());
  ReapWorker(w2.value());
}

void ExpectSameExplorerReports(const campaign::ExplorerReport& a,
                               const campaign::ExplorerReport& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].scenarios, b.rounds[i].scenarios) << "round " << i;
    EXPECT_EQ(a.rounds[i].crashes, b.rounds[i].crashes) << "round " << i;
    EXPECT_EQ(a.rounds[i].new_crash_buckets, b.rounds[i].new_crash_buckets)
        << "round " << i;
    EXPECT_EQ(a.rounds[i].winners, b.rounds[i].winners) << "round " << i;
    EXPECT_EQ(a.rounds[i].new_offsets, b.rounds[i].new_offsets)
        << "round " << i;
    EXPECT_EQ(a.rounds[i].union_offsets, b.rounds[i].union_offsets)
        << "round " << i;
    EXPECT_EQ(a.rounds[i].corpus_size, b.rounds[i].corpus_size)
        << "round " << i;
  }
  EXPECT_EQ(a.coverage, b.coverage);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(a.corpus[i].ToXml(), b.corpus[i].ToXml()) << "corpus " << i;
  }
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].hash, b.crashes[i].hash) << "crash " << i;
    EXPECT_EQ(a.crashes[i].site_hash, b.crashes[i].site_hash) << "crash " << i;
    EXPECT_EQ(a.crashes[i].signature, b.crashes[i].signature) << "crash " << i;
    EXPECT_EQ(a.crashes[i].count, b.crashes[i].count) << "crash " << i;
    EXPECT_EQ(a.crashes[i].minimized.ToXml(), b.crashes[i].minimized.ToXml())
        << "crash " << i;
    EXPECT_EQ(a.crashes[i].reproduces, b.crashes[i].reproduces)
        << "crash " << i;
  }
  EXPECT_EQ(a.ToText(), b.ToText());
}

// The whole closed loop through the fabric: explorer rounds fan out to
// worker processes via ExplorerOptions::dispatch, and the exploration —
// union bitmap, corpus, crash buckets, minimized reproducers — is
// bit-identical to the purely in-process run.
TEST(Fabric, ExplorerRoundsThroughFabricAreBitIdentical) {
  campaign::ExplorerOptions eopts;
  eopts.rounds = 3;
  eopts.scenarios_per_round = 10;
  eopts.seed = 11;
  eopts.campaign.jobs = 1;

  auto setup = MakeSetup(ReaderSpec());
  ASSERT_TRUE(setup.ok());
  campaign::Explorer plain(setup.value(), apps::LibcProfiles(), eopts);
  campaign::ExplorerReport baseline = plain.Explore();
  ASSERT_FALSE(baseline.crashes.empty());

  auto w1 = SpawnLocalWorker();
  auto w2 = SpawnLocalWorker();
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(),
                           campaign::Explorer::DispatchOptions(eopts.campaign));
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "w1").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "w2").ok());

  campaign::ExplorerOptions fabric_eopts = eopts;
  fabric_eopts.dispatch = &fabric;
  campaign::Explorer through(setup.value(), apps::LibcProfiles(),
                             fabric_eopts);
  campaign::ExplorerReport distributed = through.Explore();

  ExpectSameExplorerReports(baseline, distributed);
  EXPECT_GT(fabric.stats().scenarios_remote, 0u);
  ReapWorker(w1.value());
  ReapWorker(w2.value());
}

// Directed mode over the wire: CFG-distance fitness with the feasible-only
// gate. Fitness runs on the coordinating side from worker-shipped bitmaps,
// and feasible_only must ride the options frame so remote TriggerEngines
// gate exactly like local ones — any drift shows up as report divergence.
TEST(Fabric, DirectedExplorerRoundsThroughFabricAreBitIdentical) {
  campaign::ExplorerOptions eopts;
  eopts.rounds = 3;
  eopts.scenarios_per_round = 10;
  eopts.seed = 11;
  eopts.fitness = campaign::FitnessKind::CfgDistance;
  eopts.campaign.controller.feasible_only = true;
  eopts.campaign.jobs = 1;

  auto setup = MakeSetup(ReaderSpec());
  ASSERT_TRUE(setup.ok());
  campaign::Explorer plain(setup.value(), apps::LibcProfiles(), eopts);
  campaign::ExplorerReport baseline = plain.Explore();
  ASSERT_GT(baseline.union_offsets(), 0u);

  auto w1 = SpawnLocalWorker();
  auto w2 = SpawnLocalWorker();
  ASSERT_TRUE(w1.ok()) << w1.error();
  ASSERT_TRUE(w2.ok()) << w2.error();
  FabricCoordinator fabric(ReaderSpec(), apps::LibcProfiles(),
                           campaign::Explorer::DispatchOptions(eopts.campaign));
  ASSERT_TRUE(fabric.AddWorkerFd(w1.value().fd, "w1").ok());
  ASSERT_TRUE(fabric.AddWorkerFd(w2.value().fd, "w2").ok());

  campaign::ExplorerOptions fabric_eopts = eopts;
  fabric_eopts.dispatch = &fabric;
  campaign::Explorer through(setup.value(), apps::LibcProfiles(),
                             fabric_eopts);
  campaign::ExplorerReport distributed = through.Explore();

  ExpectSameExplorerReports(baseline, distributed);
  EXPECT_GT(fabric.stats().scenarios_remote, 0u);
  ReapWorker(w1.value());
  ReapWorker(w2.value());
}

}  // namespace
}  // namespace lfi::serve
