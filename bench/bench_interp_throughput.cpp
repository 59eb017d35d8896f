// Interpreter throughput: superblock vs reference engines.
//
// Two workloads, each executed per engine on otherwise-identical machines.
// At full size each engine leg is the best (minimum) wall time of three
// repeats, interleaved round-robin across engines — preemption on shared
// hosts only ever adds time, so the min is the robust throughput estimate,
// and interleaving keeps a noise burst from landing entirely on one
// engine's repeats. Repeats must agree on the instruction count exactly.
//   - spin-loop: a synthetic opcode mix (arith, LOAD/STORE to module data,
//     PUSH/POP, CALL/RET, conditional branch) that isolates raw
//     fetch/decode/dispatch cost;
//   - oltp: the Table-4 MySQL/SysBench stand-in, a realistic campaign
//     workload (syscalls, libc, kernel handlers included). Its superblock
//     leg also runs with coverage tracking on, as every campaign does:
//     that row is the interpreter speed a campaign actually sees.
//
// Prints instructions/sec and ns/instr per engine plus speedups; when
// LFI_BENCH_JSON names a file, writes the same numbers as JSON (one entry
// per engine, each with a speedup_vs_reference field) so CI can archive
// the perf trajectory across PRs (BENCH_interp.json artifact).
//
// One regression bar, enforced (non-zero exit) at full size: superblock
// >= 4x reference on oltp (decode-once plus span fusion on the realistic
// mix).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "bench_util.hpp"
#include "isa/codebuilder.hpp"
#include "libc/libc_builder.hpp"
#include "sso/sso.hpp"
#include "vm/machine.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;
using Clock = std::chrono::steady_clock;

struct EngineRun {
  uint64_t instructions = 0;
  double seconds = 0;
  double instr_per_sec() const {
    return seconds > 0 ? static_cast<double>(instructions) / seconds : 0;
  }
  double ns_per_instr() const {
    return instructions > 0 ? seconds * 1e9 / static_cast<double>(instructions)
                            : 0;
  }
};

double Speedup(const EngineRun& fast, const EngineRun& base) {
  return base.instr_per_sec() > 0 ? fast.instr_per_sec() / base.instr_per_sec()
                                  : 0;
}

/// The synthetic opcode-mix program: `iters` loop bodies + a bare callee.
sso::SharedObject BuildSpinLoop(int64_t iters) {
  CodeBuilder b;
  b.begin_function("main");
  uint32_t scratch = b.reserve_data(8);
  auto loop = b.new_label();
  auto helper = b.new_label();
  b.mov_ri(Reg::R1, iters);
  b.lea_data(Reg::R2, static_cast<int32_t>(scratch));
  b.mov_ri(Reg::R3, 0);
  b.bind(loop);
  b.load(Reg::R4, Reg::R2, 0);
  b.add_rr(Reg::R4, Reg::R3);
  b.xor_ri(Reg::R4, 0x5a);
  b.store(Reg::R2, 0, Reg::R4);
  b.push(Reg::R4);
  b.pop(Reg::R5);
  b.add_rr(Reg::R3, Reg::R5);
  b.mul_ri(Reg::R3, 3);
  b.and_ri(Reg::R3, 0xffff);
  b.call(helper);
  b.sub_ri(Reg::R1, 1);
  b.cmp_ri(Reg::R1, 0);
  b.jgt(loop);
  b.mov_rr(Reg::R0, Reg::R3);
  b.leave_ret();
  b.end_function();
  b.bind(helper);  // bare callee: CALL/RET round trip only
  b.ret();
  return sso::FromCodeUnit("spin.so", b.Finish());
}

EngineRun RunSpin(vm::ExecMode mode, int64_t iters) {
  vm::Machine machine;
  machine.SetExecMode(mode);
  machine.Load(BuildSpinLoop(iters)).value();
  auto pid = machine.CreateProcess("main");
  EngineRun run;
  if (!pid.ok()) return run;
  auto begin = Clock::now();
  machine.RunToCompletion(pid.value(), 2'000'000'000);
  run.seconds = std::chrono::duration<double>(Clock::now() - begin).count();
  run.instructions = machine.total_instructions();
  return run;
}

EngineRun RunOltp(vm::ExecMode mode, int transactions, bool coverage = false) {
  vm::Machine machine;
  machine.SetExecMode(mode);
  if (coverage) machine.EnableCoverage();
  machine.Load(libc::BuildLibc()).value();
  apps::DbConfig config;
  config.transactions = transactions;
  for (sso::SharedObject& so : apps::BuildDbServer(config)) {
    machine.Load(std::move(so)).value();
  }
  machine.kernel().add_file(apps::kDbDataPath,
                            std::vector<uint8_t>(4096, uint8_t{0}));
  machine.kernel().add_file(apps::kDbLogPath, {});
  auto pid = machine.CreateProcess(apps::kDbEntry);
  EngineRun run;
  if (!pid.ok()) return run;
  auto begin = Clock::now();
  machine.RunToCompletion(pid.value(), 2'000'000'000);
  run.seconds = std::chrono::duration<double>(Clock::now() - begin).count();
  run.instructions = machine.total_instructions();
  return run;
}

/// Fold one more repeat into the per-engine best (minimum time). Every
/// repeat re-executes the whole deterministic workload, so the instruction
/// counts must match exactly — a mismatch means the engine lost
/// determinism, and the bench aborts rather than publish numbers for a
/// broken engine.
void Merge(EngineRun* best, const EngineRun& next) {
  if (best->instructions == 0) {
    *best = next;
    return;
  }
  if (next.instructions != best->instructions) {
    std::fprintf(stderr,
                 "FATAL: instruction count drifted across repeats "
                 "(%llu vs %llu)\n",
                 (unsigned long long)best->instructions,
                 (unsigned long long)next.instructions);
    std::abort();
  }
  if (next.seconds < best->seconds) *best = next;
}

/// Both engine runs of one workload, reference last (the baseline), and
/// the superblock run with coverage tracking on (oltp only).
struct WorkloadRuns {
  EngineRun superblock;
  EngineRun reference;
  EngineRun superblock_coverage;
};

void AppendEngineJson(std::string* out, const char* engine,
                      const EngineRun& run, const EngineRun& ref) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"instructions\": %llu, \"seconds\": %.6f, "
                "\"instr_per_sec\": %.0f, \"ns_per_instr\": %.3f, "
                "\"speedup_vs_reference\": %.2f}",
                engine, (unsigned long long)run.instructions, run.seconds,
                run.instr_per_sec(), run.ns_per_instr(), Speedup(run, ref));
  *out += buf;
}

void AppendJson(std::string* out, const char* name, const WorkloadRuns& w) {
  *out += "  \"" + std::string(name) + "\": {\n";
  AppendEngineJson(out, "superblock", w.superblock, w.reference);
  *out += ",\n";
  AppendEngineJson(out, "reference", w.reference, w.reference);
  *out += ",\n";
  if (w.superblock_coverage.instructions > 0) {
    AppendEngineJson(out, "superblock_coverage", w.superblock_coverage,
                     w.reference);
    *out += ",\n";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "    \"speedup\": %.2f\n  }",
                Speedup(w.superblock, w.reference));
  *out += buf;
}

int PrintThroughput() {
  const int64_t spin_iters = bench::Scaled(2'000'000, 20'000);
  // Full-size OLTP is sized so even the fastest engine runs for tens of
  // milliseconds per repeat — at 2k transactions the superblock leg
  // finished in ~6ms, where a single scheduler tick is a double-digit
  // percentage error on shared hosts.
  const int oltp_txns = bench::Scaled(20'000, 50);
  // Smoke runs are about wiring, not timing stability; skip the repeats.
  const int repeats = bench::Scaled(3, 1);

  // Untimed warmup: first-touch page faults and one-time image builds
  // otherwise land on whichever engine happens to run first.
  RunSpin(vm::ExecMode::Superblock, 1'000);
  RunOltp(vm::ExecMode::Superblock, 10);

  // Repeats are interleaved round-robin across engines (not N of one
  // engine back-to-back) so a noisy period on a shared host degrades
  // every engine's affected repeat, not whichever engine happened to be
  // running — the speedup *ratios* are what the bars check.
  WorkloadRuns spin;
  WorkloadRuns oltp;
  for (int rep = 0; rep < repeats; ++rep) {
    Merge(&spin.superblock, RunSpin(vm::ExecMode::Superblock, spin_iters));
    Merge(&spin.reference, RunSpin(vm::ExecMode::Reference, spin_iters));
    Merge(&oltp.superblock, RunOltp(vm::ExecMode::Superblock, oltp_txns));
    Merge(&oltp.reference, RunOltp(vm::ExecMode::Reference, oltp_txns));
    Merge(&oltp.superblock_coverage,
          RunOltp(vm::ExecMode::Superblock, oltp_txns, /*coverage=*/true));
  }

  auto fmt = [](const char* workload, const char* engine, const EngineRun& r,
                const EngineRun& ref) {
    std::vector<std::string> row;
    char buf[64];
    row.push_back(workload);
    row.push_back(engine);
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)r.instructions);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", r.seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", r.instr_per_sec() / 1e6);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", r.ns_per_instr());
    row.push_back(buf);
    double speedup = Speedup(r, ref);
    if (&r != &ref && speedup > 0) {
      std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
      row.push_back(buf);
    } else {
      row.push_back("1.00x (baseline)");
    }
    return row;
  };

  bench::PrintTable(
      "Interpreter throughput: superblock vs reference",
      {{"workload", "engine", "instructions", "seconds", "Minstr/s",
        "ns/instr", "vs reference"},
       fmt("spin-loop", "reference", spin.reference, spin.reference),
       fmt("spin-loop", "superblock", spin.superblock, spin.reference),
       fmt("oltp", "reference", oltp.reference, oltp.reference),
       fmt("oltp", "superblock", oltp.superblock, oltp.reference),
       fmt("oltp", "superblock+coverage", oltp.superblock_coverage,
           oltp.reference)});
  // The bar is enforced (non-zero exit) at full size; smoke workloads are
  // too small for stable timing, so there it only warns. Ratios are robust
  // to absolute machine speed, so this is safe on shared CI.
  int rc = 0;
  double oltp_sb = Speedup(oltp.superblock, oltp.reference);
  if (oltp_sb < 4.0) {
    std::printf("%s: oltp superblock speedup %.2fx below the 4x bar\n",
                bench::SmokeMode() ? "WARNING" : "FAIL", oltp_sb);
    if (!bench::SmokeMode()) rc = 1;
  }

  if (const char* path = std::getenv("LFI_BENCH_JSON")) {
    std::string json = "{\n";
    AppendJson(&json, "spin_loop", spin);
    json += ",\n";
    AppendJson(&json, "oltp", oltp);
    json += "\n}\n";
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

/// Micro-benchmark: one spin-loop execution per iteration (per engine).
void BM_Interp(benchmark::State& state, vm::ExecMode mode) {
  const int64_t iters = 10'000;
  for (auto _ : state) {
    EngineRun run = RunSpin(mode, iters);
    benchmark::DoNotOptimize(run.instructions);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(run.instructions));
  }
}

void BM_InterpSuperblock(benchmark::State& state) {
  BM_Interp(state, vm::ExecMode::Superblock);
}
void BM_InterpReference(benchmark::State& state) {
  BM_Interp(state, vm::ExecMode::Reference);
}
BENCHMARK(BM_InterpSuperblock);
BENCHMARK(BM_InterpReference);

}  // namespace
}  // namespace lfi

// Not LFI_BENCH_MAIN: the table pass returns an exit code (the 4x bar).
int main(int argc, char** argv) {
  int rc = lfi::PrintThroughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
