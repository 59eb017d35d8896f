// Directed vs undirected exploration at equal scenario budget (the PR's
// A/B claim): CFG-distance fitness plus the feasible-only injection gate
// against plain coverage-count selection.
//
// The target is a journal-style guest whose error handling has the two
// properties the directed mode exists for:
//   - every guard checks the *specific* error code (`== -1`, `== NULL`),
//     so injecting a documentation-derived code the implementation never
//     returns sails straight past the handler;
//   - each handler contains a nested fallback call with its own guard, so
//     the deep recovery blocks need two coincident faults — reachable
//     within budget only if parent selection favors corpus members that
//     already made it into the outer handler.
//
// Arm A (undirected) explores with coverage fitness over profiles padded
// with Assumed error codes the binary can never return — the realistic
// shape of a hand-augmented profile. Arm B (directed) runs the same
// budget with CFG-distance parent selection and --feasible-only.
//
// Enforced bars (exit code):
//   - B covers strictly more error-handling blocks than A (the blocks
//     analysis::ErrorHandlingBlocks flags — the recovery paths fault
//     injection exists to execute);
//   - B's union coverage is no smaller than A's (direction must not cost
//     breadth).
// The configuration is fixed and identical in smoke and full mode: both
// arms are deterministic, so the comparison is exactly reproducible.
//
// LFI_BENCH_JSON (BENCH_directed.json) records both arms' error-block and
// union-offset counts for the artifact history.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/heuristics.hpp"
#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "campaign/explorer.hpp"
#include "campaign/fitness.hpp"
#include "isa/codebuilder.hpp"
#include "libc/libc_builder.hpp"
#include "vm/machine.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;

/// One journal stage: call `fn`, compare the result against the exact
/// failure value, and on failure run a recovery block that logs through a
/// fallback write() — which is itself guarded, giving every stage a
/// second-order handler two faults deep.
void EmitStage(CodeBuilder& b, const std::string& fn,
               const std::vector<Reg>& args, int64_t fail_value,
               uint32_t log_buf) {
  for (auto it = args.rbegin(); it != args.rend(); ++it) b.push(*it);
  b.call_sym(fn);
  b.add_ri(Reg::SP, static_cast<int64_t>(8 * args.size()));
  auto next = b.new_label();
  b.cmp_ri(Reg::R0, fail_value);
  b.jne(next);  // success jumps away: the handler is the fall-through
  // Outer handler: count the failure, append a log record.
  b.add_ri(Reg::R6, 1);
  b.mov_ri(Reg::R3, 8);
  b.lea_data(Reg::R2, static_cast<int32_t>(log_buf));
  b.load(Reg::R1, Reg::BP, -16);  // log fd
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("write");
  b.add_ri(Reg::SP, 24);
  b.cmp_ri(Reg::R0, -1);
  b.jne(next);
  // Deep handler: the fallback failed too — reachable only when this
  // stage's fault coincides with a write() fault.
  b.add_ri(Reg::R7, 1);
  b.bind(next);
}

/// The bench guest: open a database and a log, then run a fixed pipeline
/// of guarded libc calls (stat/read/write/lseek/fsync/malloc/calloc/
/// close), each with the EmitStage handler shape.
sso::SharedObject BuildJournalApp() {
  CodeBuilder b;
  uint32_t db_path = b.emit_data({'/', 'd', 'b', 0});
  uint32_t log_path = b.emit_data({'/', 'l', 'o', 'g', 0});
  uint32_t buf = b.reserve_data(64);
  uint32_t log_buf = b.emit_data({'j', 'o', 'u', 'r', 'n', 'a', 'l', 0});
  b.begin_function("main");
  b.sub_ri(Reg::SP, 32);
  // db fd at BP-8, log fd at BP-16.
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(db_path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -8, Reg::R0);
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(log_path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -16, Reg::R0);

  // stat("/db", NULL)
  b.lea_data(Reg::R1, static_cast<int32_t>(db_path));
  b.mov_ri(Reg::R2, 0);
  EmitStage(b, "stat", {Reg::R1, Reg::R2}, -1, log_buf);
  // read(db, buf, 32)
  b.load(Reg::R1, Reg::BP, -8);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 32);
  EmitStage(b, "read", {Reg::R1, Reg::R2, Reg::R3}, -1, log_buf);
  // write(log, buf, 16)
  b.load(Reg::R1, Reg::BP, -16);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 16);
  EmitStage(b, "write", {Reg::R1, Reg::R2, Reg::R3}, -1, log_buf);
  // lseek(db, 0, SET)
  b.load(Reg::R1, Reg::BP, -8);
  b.mov_ri(Reg::R2, 0);
  b.mov_ri(Reg::R3, 0);
  EmitStage(b, "lseek", {Reg::R1, Reg::R2, Reg::R3}, -1, log_buf);
  // fsync(log)
  b.load(Reg::R1, Reg::BP, -16);
  EmitStage(b, "fsync", {Reg::R1}, -1, log_buf);
  // malloc(24) / calloc(4, 8): pointer returns, NULL on failure. The
  // results are only null-checked, never dereferenced.
  b.mov_ri(Reg::R1, 24);
  EmitStage(b, "malloc", {Reg::R1}, 0, log_buf);
  b.mov_ri(Reg::R1, 4);
  b.mov_ri(Reg::R2, 8);
  EmitStage(b, "calloc", {Reg::R1, Reg::R2}, 0, log_buf);
  // close(db)
  b.load(Reg::R1, Reg::BP, -8);
  EmitStage(b, "close", {Reg::R1}, -1, log_buf);

  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("journal.so", b.Finish(), {libc::kLibcName});
}

campaign::MachineSetup JournalSetup() {
  auto libc_so = std::make_shared<const sso::SharedObject>(libc::BuildLibc());
  auto app = std::make_shared<const sso::SharedObject>(BuildJournalApp());
  return [libc_so, app](vm::Machine& machine) {
    machine.Load(*libc_so).value();
    machine.Load(*app).value();
    machine.kernel().add_file("/db", std::vector<uint8_t>(64, 'd'));
    machine.kernel().add_file("/log", {});
  };
}

/// Per-module begin offsets of every error-handling block in the loaded
/// image — the measurement universe both arms are scored against.
std::map<std::string, std::set<uint32_t>> ErrorBlockUniverse(
    const campaign::MachineSetup& setup) {
  std::map<std::string, std::set<uint32_t>> universe;
  vm::Machine machine;
  setup(machine);
  for (const auto& mod : machine.loader().modules()) {
    const sso::SharedObject& so = mod->object;
    for (const isa::Symbol& fn : so.exports) {
      auto cfg = analysis::BuildCfg(so, fn);
      if (!cfg.ok()) continue;
      for (size_t b : analysis::ErrorHandlingBlocks(cfg.value())) {
        universe[so.name].insert(cfg.value().blocks[b].begin);
      }
    }
  }
  return universe;
}

size_t CoveredErrorBlocks(
    const std::map<std::string, std::set<uint32_t>>& universe,
    const std::map<std::string, vm::CoverageBitmap>& coverage) {
  size_t covered = 0;
  for (const auto& [name, begins] : universe) {
    auto it = coverage.find(name);
    if (it == coverage.end()) continue;
    for (uint32_t begin : begins) {
      if (it->second.Test(begin)) ++covered;
    }
  }
  return covered;
}

/// LibcProfiles plus documentation-derived noise: every profiled function
/// gains an Assumed error code the binary cannot actually return. The
/// profiler-derived codes keep their Analyzed provenance, so the
/// feasible-only gate skips exactly the padding.
std::vector<core::FaultProfile> PaddedProfiles() {
  std::vector<core::FaultProfile> profiles = apps::LibcProfiles();
  for (core::FaultProfile& lib : profiles) {
    for (core::FunctionProfile& fn : lib.functions) {
      if (fn.error_codes.empty()) continue;
      core::ProfileErrorCode assumed;
      assumed.retval = -125;  // no libc function returns this
      assumed.provenance = core::Provenance::Assumed;
      fn.error_codes.push_back(assumed);
    }
  }
  return profiles;
}

struct ArmResult {
  const char* name;
  size_t error_blocks = 0;
  size_t union_offsets = 0;
  size_t crashes = 0;
};

ArmResult RunArm(const char* name, campaign::FitnessKind fitness,
                 bool feasible_only,
                 const std::map<std::string, std::set<uint32_t>>& universe) {
  campaign::ExplorerOptions opts;
  // Fixed equal budget for both arms — identical in smoke and full mode,
  // so the CI bars hold exactly when the local ones do.
  opts.rounds = 4;
  opts.scenarios_per_round = 6;
  opts.seed = 1;
  opts.seed_probability = 0.1;
  opts.minimize_crashes = false;
  opts.fitness = fitness;
  opts.campaign.controller.feasible_only = feasible_only;
  campaign::Explorer explorer(JournalSetup(), PaddedProfiles(), opts);
  campaign::ExplorerReport report = explorer.Explore();

  ArmResult r;
  r.name = name;
  r.error_blocks = CoveredErrorBlocks(universe, report.coverage);
  r.union_offsets = report.union_offsets();
  r.crashes = report.crashes.size();
  return r;
}

int PrintComparison() {
  auto universe = ErrorBlockUniverse(JournalSetup());
  size_t total_error_blocks = 0;
  for (const auto& [name, begins] : universe) {
    total_error_blocks += begins.size();
  }

  ArmResult undirected = RunArm("coverage", campaign::FitnessKind::Coverage,
                                /*feasible_only=*/false, universe);
  ArmResult directed =
      RunArm("cfg-distance+feasible", campaign::FitnessKind::CfgDistance,
             /*feasible_only=*/true, universe);

  std::vector<std::vector<std::string>> rows = {
      {"arm", "error blocks", "of total", "union offsets", "crash buckets"}};
  for (const ArmResult* a : {&undirected, &directed}) {
    char buf[64];
    std::vector<std::string> row;
    row.push_back(a->name);
    std::snprintf(buf, sizeof(buf), "%zu", a->error_blocks);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu", total_error_blocks);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu", a->union_offsets);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu", a->crashes);
    row.push_back(buf);
    rows.push_back(std::move(row));
  }
  bench::PrintTable("directed vs undirected exploration (equal budget)",
                    rows);

  int rc = 0;
  if (directed.error_blocks <= undirected.error_blocks) {
    std::printf("FAIL: directed arm covers %zu error-handling blocks, "
                "undirected covers %zu — direction bought nothing\n",
                directed.error_blocks, undirected.error_blocks);
    rc = 1;
  }
  if (directed.union_offsets < undirected.union_offsets) {
    std::printf("FAIL: directed arm's union coverage (%zu) fell below the "
                "undirected arm's (%zu)\n",
                directed.union_offsets, undirected.union_offsets);
    rc = 1;
  }

  if (const char* path = std::getenv("LFI_BENCH_JSON")) {
    char buf[512];
    std::string json = "{\n";
    for (const ArmResult* a : {&undirected, &directed}) {
      std::snprintf(buf, sizeof(buf),
                    "  \"%s\": {\"error_blocks\": %zu, "
                    "\"error_blocks_total\": %zu, \"union_offsets\": %zu, "
                    "\"crash_buckets\": %zu}%s\n",
                    a->name, a->error_blocks, total_error_blocks,
                    a->union_offsets, a->crashes,
                    a == &undirected ? "," : "");
      json += buf;
    }
    json += "}\n";
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path);
    } else {
      std::printf("WARNING: cannot write %s\n", path);
    }
  }
  return rc;
}

/// Micro-benchmark for the new per-round cost: rescoring a corpus against
/// the uncovered-error-block distance field (graph BFS + bitmap walks).
void BM_CfgDistanceBeginRound(benchmark::State& state) {
  campaign::CfgDistanceFitness fitness(JournalSetup());
  // A synthetic 16-member corpus with spread-out coverage.
  std::vector<std::map<std::string, vm::CoverageBitmap>> corpus;
  std::map<std::string, vm::CoverageBitmap> unioned;
  for (size_t i = 0; i < 16; ++i) {
    std::map<std::string, vm::CoverageBitmap> member;
    vm::CoverageBitmap bm(1 << 14);
    for (uint32_t off = static_cast<uint32_t>(i); off < bm.size_bits();
         off += 7) {
      bm.Set(off);
    }
    unioned[libc::kLibcName].Merge(bm);
    member[libc::kLibcName] = std::move(bm);
    corpus.push_back(std::move(member));
  }
  for (auto _ : state) {
    fitness.BeginRound(corpus, unioned);
    benchmark::DoNotOptimize(fitness.scores().size());
  }
}
BENCHMARK(BM_CfgDistanceBeginRound);

}  // namespace
}  // namespace lfi

// Not LFI_BENCH_MAIN: the comparison pass returns an exit code (the
// directed-beats-undirected bars are enforced).
int main(int argc, char** argv) {
  int rc = lfi::PrintComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
