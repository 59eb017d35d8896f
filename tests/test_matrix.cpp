// The determinism matrix: a scenario's outcome depends on its plan alone,
// never on how it was executed. This is what lets a replay script (paper
// §5.2) reproduce, anywhere, what a campaign saw.
//
// Each row is one workload: a serve::TargetSpec plus its options and
// scenarios (or explorer options). Each of the 16 cells runs the row under
// one execution strategy,
//
//   jobs {1, 4} x engine {superblock, reference} x {cold, snapshot}
//     x {in-process, 2 forked SpawnLocalWorker workers},
//
// and must equal the row's reference cell (jobs 1, superblock, cold,
// in-process) under test_helpers.hpp's comparator for the row's report
// type. Snapshot cells must also equal the in-process snapshot cell, which
// adds the snapshot fallbacks to the comparison. In-process cells build
// their machines through serve::MakeSetup(spec), as fabric workers do.
// Every cell checks that its row is non-trivial (faults injected, crashes
// found, flips landed), so the identity has something to compare.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/seu_guest.hpp"
#include "serve/coordinator.hpp"
#include "serve/worker.hpp"
#include "test_helpers.hpp"

namespace lfi::test {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::ExplorerReport;
using campaign::Scenario;
using campaign::ScenarioResult;

// ---- cells -------------------------------------------------------------------

struct Cell {
  int jobs = 1;
  vm::ExecMode engine = vm::ExecMode::Superblock;
  bool snapshot = false;
  bool fabric = false;
};

constexpr size_t kCells = 16;
constexpr size_t kReferenceCell = 0;
constexpr size_t kSnapshotReferenceCell = 4;
constexpr size_t kFabricWorkers = 2;

/// Cell i sets one dimension per bit: 1 = jobs 4, 2 = reference engine,
/// 4 = snapshot, 8 = fabric. Cell 0 is the reference cell.
Cell CellAt(size_t i) {
  return {(i & 1) ? 4 : 1,
          (i & 2) ? vm::ExecMode::Reference : vm::ExecMode::Superblock,
          (i & 4) != 0, (i & 8) != 0};
}

std::string CellName(const Cell& cell) {
  return "j" + std::to_string(cell.jobs) + "_" +
         vm::ExecModeName(cell.engine) +
         (cell.snapshot ? "_snapshot" : "_cold") +
         (cell.fabric ? "_fabric" : "_inprocess");
}

// ---- rows --------------------------------------------------------------------

/// What a cell produced: a campaign report (campaign and SEU rows) or an
/// exploration (explorer rows), plus the fabric counters of fabric cells.
struct Outcome {
  CampaignReport campaign;
  ExplorerReport explorer;
  serve::FabricStats fabric;
};

enum class Kind { Campaign, Seu, Explorer };

struct Row {
  Kind kind = Kind::Campaign;
  serve::TargetSpec spec;
  std::vector<core::FaultProfile> profiles;
  /// The campaign's options; in explorer rows, the explorer's campaign.
  CampaignOptions options;
  std::vector<Scenario> scenarios;     // campaign and SEU rows
  campaign::ExplorerOptions explorer;  // explorer rows
  campaign::GoldenRun golden;          // SEU rows
  /// The row's non-triviality, checked on every cell's outcome.
  std::function<void(const Outcome&)> check;
};

CampaignOptions CollectAll(const char* entry) {
  CampaignOptions opts;
  opts.entry = entry;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  return opts;
}

serve::TargetSpec LibcAnd(const std::vector<sso::SharedObject>& app) {
  serve::TargetSpec spec;
  spec.modules.push_back(libc::BuildLibc().Serialize());
  for (const sso::SharedObject& so : app) spec.modules.push_back(so.Serialize());
  return spec;
}

/// apps::DbSuiteMachineSetup as a spec.
serve::TargetSpec DbSuiteSpec() {
  serve::TargetSpec spec = LibcAnd(apps::BuildDbServer(apps::DbConfig{}));
  spec.files.emplace_back(apps::kDbDataPath, std::vector<uint8_t>(4096, 0));
  spec.files.emplace_back(apps::kDbLogPath, std::vector<uint8_t>());
  return spec;
}

/// db-suite's campaign-wide warmup: not a multiple of the scheduler
/// quantum, so the snapshot tree's nodes sit mid-run and, on the
/// superblock engine, mid-segment.
constexpr uint64_t kDbWarmup = 4321;

/// db-suite with per-scenario fault windows past the campaign's warmup.
Row DbSuiteCampaign() {
  Row row;
  row.spec = DbSuiteSpec();
  row.profiles = apps::LibcProfiles();
  row.options = CollectAll(apps::kDbTestEntry);
  row.options.warmup_instructions = kDbWarmup;
  row.scenarios = RandomScenarios(16, 0.05, 11);
  const uint64_t windows[] = {kDbWarmup, 8765, 13131};
  for (size_t i = 0; i < row.scenarios.size(); ++i) {
    row.scenarios[i].warmup_instructions = windows[i % std::size(windows)];
  }
  row.check = [](const Outcome& out) {
    EXPECT_GT(out.campaign.total_injections, 0u);
    // Every scenario ran at least the fault-free prefix.
    for (const ScenarioResult& r : out.campaign.results) {
      EXPECT_GE(r.instructions, kDbWarmup) << r.name;
    }
  };
  return row;
}

/// Pidgin at its entry window. 18 scenarios do not divide among 4 jobs,
/// so the slots run unequal scenario counts.
Row PidginCampaign() {
  Row row;
  row.spec = LibcAnd({apps::BuildPidgin()});
  row.profiles = apps::LibcProfiles();
  row.options = CollectAll(apps::kPidginEntry);
  row.scenarios = RandomScenarios(18, 0.1, 23);
  row.check = [](const Outcome& out) {
    EXPECT_GT(out.campaign.total_injections, 0u);
    EXPECT_GT(out.campaign.crashes, 0u);
  };
  return row;
}

Row ReaderCampaign() {
  Row row;
  row.spec = ReaderSpec();
  row.profiles = apps::LibcProfiles();
  row.options = CollectAll("main");
  row.scenarios = RandomScenarios(32, 0.3, 42);
  row.check = [](const Outcome& out) {
    EXPECT_GT(out.campaign.total_injections, 0u);
    EXPECT_GT(out.campaign.crashes, 0u);
    // The app module's bitmap is populated, not just libc's.
    auto app = out.campaign.coverage.find("readerapp.so");
    ASSERT_NE(app, out.campaign.coverage.end());
    EXPECT_GT(app->second.Count(), 0u);
  };
  return row;
}

/// Coverage-guided rounds on Pidgin, with triage and minimization.
Row ExploreCoverage() {
  Row row;
  row.kind = Kind::Explorer;
  row.spec = LibcAnd({apps::BuildPidgin()});
  row.profiles = apps::LibcProfiles();
  row.options.entry = apps::kPidginEntry;
  row.explorer.rounds = 3;
  row.explorer.scenarios_per_round = 12;
  row.explorer.seed = 1;
  row.explorer.seed_probability = 0.1;
  row.check = [](const Outcome& out) {
    EXPECT_GT(out.explorer.union_offsets(), 0u);
    EXPECT_FALSE(out.explorer.crashes.empty());
  };
  return row;
}

/// Directed rounds on the reader: CFG-distance fitness plus the
/// feasible-only gate, which fabric workers receive in the options frame.
Row ExploreCfgDistance() {
  Row row;
  row.kind = Kind::Explorer;
  row.spec = ReaderSpec();
  row.profiles = apps::LibcProfiles();
  row.options.controller.feasible_only = true;
  row.explorer.rounds = 3;
  row.explorer.scenarios_per_round = 10;
  row.explorer.seed = 42;
  row.explorer.seed_probability = 0.3;
  row.explorer.fitness = campaign::FitnessKind::CfgDistance;
  row.check = [](const Outcome& out) {
    EXPECT_GT(out.explorer.union_offsets(), 0u);
  };
  return row;
}

/// Fork windows on db-suite, whose runs are long enough that mutants open
/// their fault windows past the first: the windows come from each plan's
/// first-injection instant, which every engine and mode must report
/// exactly, and under snapshot they restore window-local tree nodes.
Row ExploreForkWindows() {
  Row row;
  row.kind = Kind::Explorer;
  row.spec = DbSuiteSpec();
  row.profiles = apps::LibcProfiles();
  row.options.entry = apps::kDbTestEntry;
  row.explorer.rounds = 3;
  row.explorer.scenarios_per_round = 16;
  row.explorer.seed = 3;
  row.explorer.seed_probability = 0.1;
  row.explorer.fork_windows = true;
  row.check = [](const Outcome& out) {
    ASSERT_FALSE(out.explorer.crashes.empty());
    std::set<uint64_t> windows;
    for (const campaign::CrashReport& cr : out.explorer.crashes) {
      EXPECT_TRUE(cr.reproduces) << cr.signature;
      windows.insert(cr.window);
    }
    EXPECT_GE(windows.size(), 2u) << "crashes must span fault windows";
  };
  return row;
}

/// A register, stack and data flip sweep over the unhardened SEU guest,
/// past a fault-free prefix so snapshot cells restore a mid-run node.
Row SeuSweep() {
  Row row;
  row.kind = Kind::Seu;
  auto guest = apps::BuildSeuGuest(apps::HardeningMode::None);
  EXPECT_TRUE(guest.ok());
  row.spec.modules.push_back(guest.value().Serialize());
  row.options.entry = apps::kSeuGuestEntry;
  row.options.collect_state_digest = true;
  row.options.collect_replays = true;
  row.options.warmup_instructions = 500;

  Scenario golden;
  golden.name = "golden";
  campaign::CampaignRunner runner(SetupOf(row.spec), {}, row.options);
  row.golden = campaign::GoldenFrom(runner.Run({golden}).results.front());
  EXPECT_EQ(row.golden.status, campaign::ScenarioStatus::Exited);

  campaign::SeuSweepSpec space;
  space.instants_to = row.golden.instructions - 1;
  space.samples = 16;
  space.seed = 3;
  space.stack = true;
  space.data = true;
  space.data_module = apps::kSeuGuestModule;
  space.data_bytes = guest.value().data.size();
  row.scenarios = campaign::BuildSeuSweep(space);

  const campaign::GoldenRun yardstick = row.golden;
  row.check = [yardstick](const Outcome& out) {
    campaign::SeuCounts counts =
        campaign::ClassifyCampaign(out.campaign, yardstick,
                                   isa::kSeuDetectExitCode)
            .counts;
    EXPECT_GT(counts.total - counts.not_landed, 0u);
  };
  return row;
}

struct RowDef {
  const char* name;
  Row (*make)();
};

const RowDef kRows[] = {
    {"dbsuite", DbSuiteCampaign},
    {"pidgin", PidginCampaign},
    {"reader", ReaderCampaign},
    {"explore_coverage", ExploreCoverage},
    {"explore_cfg_distance", ExploreCfgDistance},
    {"explore_fork_windows", ExploreForkWindows},
    {"seu", SeuSweep},
};

/// Rows are built on first use, once per process.
const Row& RowAt(size_t i) {
  static std::map<size_t, Row> rows;
  auto it = rows.find(i);
  if (it == rows.end()) it = rows.emplace(i, kRows[i].make()).first;
  return it->second;
}

// ---- running a cell ------------------------------------------------------------

void RunCell(const Row& row, const Cell& cell, Outcome* out) {
  CampaignOptions opts = row.options;
  opts.jobs = cell.jobs;
  opts.exec_mode = cell.engine;
  opts.snapshot = cell.snapshot;

  // Workers fork before the cell starts any thread.
  std::vector<serve::LocalWorker> workers;
  std::unique_ptr<serve::FabricCoordinator> fabric;
  if (cell.fabric) {
    for (size_t i = 0; i < kFabricWorkers; ++i) {
      auto worker = serve::SpawnLocalWorker();
      ASSERT_TRUE(worker.ok()) << worker.error();
      workers.push_back(worker.value());
    }
    fabric = std::make_unique<serve::FabricCoordinator>(
        row.spec, row.profiles,
        row.kind == Kind::Explorer ? campaign::Explorer::DispatchOptions(opts)
                                   : opts);
    for (const serve::LocalWorker& worker : workers) {
      ASSERT_TRUE(fabric->AddWorkerFd(worker.fd, "local").ok());
    }
  }

  if (row.kind == Kind::Explorer) {
    campaign::ExplorerOptions eopts = row.explorer;
    eopts.campaign = opts;
    eopts.dispatch = fabric.get();
    campaign::Explorer explorer(SetupOf(row.spec), row.profiles, eopts);
    out->explorer = explorer.Explore();
  } else if (fabric) {
    out->campaign = fabric->Run(row.scenarios);
  } else {
    campaign::CampaignRunner runner(SetupOf(row.spec), row.profiles, opts);
    out->campaign = runner.Run(row.scenarios);
  }

  if (fabric) out->fabric = fabric->stats();
  fabric.reset();  // sends Shutdown; the workers exit
  for (const serve::LocalWorker& worker : workers) {
    ::waitpid(worker.pid, nullptr, 0);
  }
}

/// A row's outcome in one of the cells others are compared against, run
/// once per process.
const Outcome& Baseline(size_t row, size_t cell) {
  static std::map<std::pair<size_t, size_t>, Outcome> outcomes;
  auto it = outcomes.find({row, cell});
  if (it == outcomes.end()) {
    Outcome out;
    RunCell(RowAt(row), CellAt(cell), &out);
    it = outcomes.emplace(std::make_pair(row, cell), std::move(out)).first;
  }
  return it->second;
}

void ExpectSame(const Row& row, const Outcome& want, const Outcome& got) {
  switch (row.kind) {
    case Kind::Campaign:
      ExpectSameCampaign(want.campaign, got.campaign);
      break;
    case Kind::Seu:
      ExpectSameSeuCampaign(want.campaign, got.campaign, row.golden);
      break;
    case Kind::Explorer:
      ExpectSameExplorer(want.explorer, got.explorer);
      break;
  }
}

// ---- the matrix ------------------------------------------------------------------

class DeterminismMatrix
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(DeterminismMatrix, MatchesReferenceCell) {
  const auto [r, c] = GetParam();
  const Row& row = RowAt(r);
  const Cell cell = CellAt(c);
  Outcome out;
  RunCell(row, cell, &out);
  if (HasFatalFailure()) return;

  row.check(out);
  {
    SCOPED_TRACE("against the reference cell");
    ExpectSame(row, Baseline(r, kReferenceCell), out);
  }
  if (cell.snapshot && row.kind != Kind::Explorer) {
    SCOPED_TRACE("against the in-process snapshot cell");
    ExpectSame(row, Baseline(r, kSnapshotReferenceCell), out);
    // Every scenario rode a snapshot: no silent cold fallbacks.
    EXPECT_EQ(out.campaign.snapshot_fallbacks, 0u);
  }
  if (cell.fabric) {
    EXPECT_EQ(out.fabric.workers_lost, 0u);
    EXPECT_EQ(out.fabric.scenarios_local, 0u);
    if (row.kind == Kind::Explorer) {
      EXPECT_GT(out.fabric.scenarios_remote, 0u);
    } else {
      EXPECT_EQ(out.fabric.scenarios_remote, row.scenarios.size());
      // Guided batching cuts 16 or more scenarios on 2 workers into at
      // least 4 batches, so each connection pipelines several.
      EXPECT_GE(out.fabric.batches_dispatched, 4u);
    }
  }
}

std::string MatrixCellName(
    const ::testing::TestParamInfo<DeterminismMatrix::ParamType>& info) {
  return std::string(kRows[std::get<0>(info.param)].name) + "_" +
         CellName(CellAt(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(
    Rows, DeterminismMatrix,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kRows)),
                       ::testing::Range<size_t>(0, kCells)),
    MatrixCellName);

}  // namespace
}  // namespace lfi::test
