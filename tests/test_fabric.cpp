// Campaign fabric integration tests: the distributed invariance story
// under stress.
//
// Every test here asserts the same thing from a different angle: a
// campaign fanned out across worker *processes* — with batching,
// pipelining, worker death, retries, and local fallback in play — produces
// results bit-identical to a single in-process run. The fabric may change
// how long things take and where they execute; it may not change one byte
// of what comes back. The healthy two-worker fabric, snapshot execution
// and explorer rounds through it are test_matrix's fabric cells.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "serve/coordinator.hpp"
#include "serve/worker.hpp"
#include "serve/wire.hpp"
#include "test_helpers.hpp"

namespace lfi::serve {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::Scenario;
using test::ExpectSameCampaign;
using test::RandomScenarios;
using test::ReaderSpec;

CampaignOptions BaseOptions() {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  return opts;
}

/// The in-process ground truth every fabric run is compared against.
CampaignReport InProcessBaseline(const std::vector<Scenario>& scenarios,
                                 CampaignOptions opts) {
  campaign::CampaignRunner runner(test::ReaderSetup(), apps::LibcProfiles(),
                                  opts);
  return runner.Run(scenarios);
}

void ReapWorker(const LocalWorker& worker) {
  ::waitpid(worker.pid, nullptr, WNOHANG);
}

// Coordinator + 1 and 4 real worker processes (2 is test_matrix's reader
// row). 32 scenarios cut into several guided batches (16/8/4/4 on one
// worker, more on several), so every connection pipelines multiple
// dispatches: byte-identical to --jobs 1 for every worker count.
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
  ExpectSameCampaign(baseline, distributed);
  EXPECT_GE(fabric.stats().batches_dispatched, 4u);
  EXPECT_EQ(fabric.stats().scenarios_remote, scenarios.size());
  EXPECT_EQ(fabric.stats().scenarios_local, 0u);
  EXPECT_EQ(fabric.stats().workers_lost, 0u);
  for (const LocalWorker& worker : workers) ReapWorker(worker);
}

INSTANTIATE_TEST_SUITE_P(Fabric, LocalWorkersMatchInProcess,
                         ::testing::Values(1, 4),
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
  ExpectSameCampaign(InProcessBaseline(first, BaseOptions()),
                    fabric.Run(first));
  ExpectSameCampaign(InProcessBaseline(second, BaseOptions()),
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
  ExpectSameCampaign(baseline, distributed);
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
  ExpectSameCampaign(baseline, distributed);
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
  ExpectSameCampaign(baseline, distributed);
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
  ExpectSameCampaign(baseline, distributed);
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
      ExpectSameCampaign(baselines[i], fabric.Run(sets[i]));
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
  ExpectSameCampaign(baseline, distributed);
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
  ExpectSameCampaign(baseline, distributed);
  EXPECT_EQ(fabric.stats().workers_lost, 1u);
  EXPECT_GT(fabric.stats().scenarios_local, 0u);
  EXPECT_EQ(fabric.live_workers(), 0u);
  ReapWorker(w1.value());
}

}  // namespace
}  // namespace lfi::serve
