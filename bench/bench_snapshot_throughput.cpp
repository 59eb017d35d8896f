// Snapshot/restore campaign throughput: scenarios/sec of the snapshot
// execution path (warm once, restore O(dirty pages) per scenario) against
// the cold path (reset + rebuild the process per scenario), on the
// db-suite and Pidgin targets. The two paths must produce bit-identical
// campaign reports — that is asserted here, and test_snapshot enforces it
// field by field — so the speedup is free: same results, fewer microjoules.
//
// Three fault-window configurations per target:
//   - entry: the window opens at the entry point (warmup 0);
//   - mid-run: at half a clean run — the setup prefix is restored, not
//     re-executed;
//   - deep: the shared snapshot stays at 25% of a clean run while the
//     scenarios spread round-robin over per-scenario windows at
//     80/85/90/95%. Each window's first scenario runs the gap once and
//     captures a tree node; every later scenario restores that node
//     directly instead of re-running up to 70% of the program.
//
// Report identity and zero snapshot fallbacks are enforced for every
// configuration; the 2x bar on db-suite's mid-run snapshot speedup is
// enforced (non-zero exit) at full size; smoke workloads are too small for
// stable timing, so there it only warns. LFI_BENCH_JSON names a file,
// writes the same numbers as JSON so CI can archive the perf trajectory
// (BENCH_snapshot.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"

namespace lfi {
namespace {

using Clock = std::chrono::steady_clock;

struct CampaignRun {
  size_t scenarios = 0;
  double seconds = 0;
  size_t crashes = 0;
  uint64_t instructions = 0;
  std::string fingerprint;  // status/instr/injections per scenario
  // Restore-cost telemetry (zero for cold runs). Worker-local, so only
  // meaningful at jobs=1 — which is how this bench runs.
  double restore_pages_mean = 0;
  uint64_t restore_pages_max = 0;
  size_t fallbacks = 0;
  double scenarios_per_sec() const {
    return seconds > 0 ? static_cast<double>(scenarios) / seconds : 0;
  }
};

/// Jobs-invariant digest of a report: enough to catch any divergence the
/// differential test would (statuses, instruction counts, injection
/// counts, first-injection instants, coverage popcounts, crash hashes).
std::string Fingerprint(const campaign::CampaignReport& report) {
  std::string out;
  char buf[160];
  for (const campaign::ScenarioResult& r : report.results) {
    std::snprintf(buf, sizeof(buf), "%d:%lld:%llu:%zu:%llu:%zu:%016llx\n",
                  static_cast<int>(r.status), (long long)r.exit_code,
                  (unsigned long long)r.instructions, r.injections,
                  (unsigned long long)r.first_injection_instructions,
                  r.covered_offsets, (unsigned long long)r.crash_hash);
    out += buf;
  }
  for (const auto& [module, bitmap] : report.coverage) {
    std::snprintf(buf, sizeof(buf), "%s:%zu\n", module.c_str(),
                  bitmap.Count());
    out += buf;
  }
  return out;
}

CampaignRun RunCampaign(const campaign::MachineSetup& setup,
                        const std::string& entry,
                        const std::vector<campaign::Scenario>& scenarios,
                        bool snapshot, uint64_t warmup) {
  campaign::CampaignOptions opts;
  opts.jobs = 1;  // single worker: measure the per-scenario path, not SMP
  opts.entry = entry;
  opts.track_coverage = true;
  opts.snapshot = snapshot;
  opts.warmup_instructions = warmup;
  campaign::CampaignRunner runner(setup, apps::LibcProfiles(), opts);
  auto begin = Clock::now();
  campaign::CampaignReport report = runner.Run(scenarios);
  CampaignRun out;
  out.seconds = std::chrono::duration<double>(Clock::now() - begin).count();
  out.scenarios = scenarios.size();
  out.crashes = report.crashes;
  out.instructions = report.total_instructions;
  out.fingerprint = Fingerprint(report);
  out.fallbacks = report.snapshot_fallbacks;
  uint64_t pages_total = 0;
  for (const campaign::ScenarioResult& r : report.results) {
    pages_total += r.restore_pages;
    out.restore_pages_max = std::max(out.restore_pages_max, r.restore_pages);
  }
  if (!report.results.empty()) {
    out.restore_pages_mean =
        static_cast<double>(pages_total) / report.results.size();
  }
  return out;
}

/// Instructions of one clean (fault-free) run of the target: the yardstick
/// for placing the fault window. Deterministic, so cold and snapshot modes
/// derive the same window.
uint64_t CleanRunInstructions(const campaign::MachineSetup& setup,
                              const std::string& entry) {
  std::vector<campaign::Scenario> one(1);
  one[0].name = "clean";
  campaign::CampaignOptions opts;
  opts.entry = entry;
  campaign::CampaignRunner runner(setup, apps::LibcProfiles(), opts);
  return runner.Run(one).results[0].instructions;
}

/// `windows` non-empty: scenario i's fault window is windows[i % n] —
/// round-robin, so the tree builds its deeper nodes incrementally (each
/// new window restores the nearest existing node below it).
std::vector<campaign::Scenario> MakeScenarios(
    size_t count, double probability, uint64_t seed,
    const std::vector<uint64_t>& windows = {}) {
  const auto& profiles = apps::LibcProfiles();
  std::vector<campaign::Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    campaign::Scenario s;
    s.name = "scn-" + std::to_string(i);
    s.plan = core::GenerateRandom(profiles, probability,
                                  campaign::DeriveSeed(seed, i));
    if (!windows.empty()) s.warmup_instructions = windows[i % windows.size()];
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

struct ModeResult {
  const char* config;  // entry / mid-run / deep
  uint64_t warmup = 0;
  size_t windows = 0;  // per-scenario fault windows (deep only)
  CampaignRun cold;
  CampaignRun snap;
  double speedup() const {
    return cold.seconds > 0 && snap.seconds > 0
               ? snap.scenarios_per_sec() / cold.scenarios_per_sec()
               : 0;
  }
  bool identical() const { return cold.fingerprint == snap.fingerprint; }
};

struct TargetResult {
  const char* name;
  ModeResult entry;   // fault window at the entry point (warmup 0)
  ModeResult window;  // fault window mid-run: setup prefix restored, not
                      // re-executed — the paper's snapshot pitch
  ModeResult deep;    // per-scenario windows deep past the shared snapshot
};

ModeResult RunMode(const char* config, const campaign::MachineSetup& setup,
                   const std::string& entry,
                   const std::vector<campaign::Scenario>& scenarios,
                   uint64_t warmup, size_t windows) {
  return {config, warmup, windows,
          RunCampaign(setup, entry, scenarios, false, warmup),
          RunCampaign(setup, entry, scenarios, true, warmup)};
}

TargetResult RunTarget(const char* name, const campaign::MachineSetup& setup,
                       const std::string& entry, size_t count,
                       double probability, uint64_t seed) {
  std::vector<campaign::Scenario> scenarios =
      MakeScenarios(count, probability, seed);
  // Warm-up pass (builds static profiles/images, settles the allocator),
  // then measured passes.
  RunCampaign(setup, entry, MakeScenarios(2, probability, seed), false, 0);
  // Fault window at half of a clean run: the first half is the scenario-
  // invariant setup prefix every cold run re-executes and every snapshot
  // run restores in O(dirty pages).
  const uint64_t clean = CleanRunInstructions(setup, entry);
  const std::vector<uint64_t> deep_windows = {
      clean * 80 / 100, clean * 85 / 100, clean * 90 / 100, clean * 95 / 100};
  return {name,
          RunMode("entry", setup, entry, scenarios, 0, 0),
          RunMode("mid-run", setup, entry, scenarios, clean / 2, 0),
          RunMode("deep", setup, entry,
                  MakeScenarios(count, probability, seed, deep_windows),
                  clean / 4, deep_windows.size())};
}

void AppendJson(std::string* json, const char* target, const char* mode,
                const ModeResult& r) {
  char buf[480];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s_%s\": {\"scenarios\": %zu, \"warmup_instructions\": %llu, "
      "\"windows\": %zu, "
      "\"cold_seconds\": %.6f, \"snapshot_seconds\": %.6f, "
      "\"cold_scenarios_per_sec\": %.1f, \"snapshot_scenarios_per_sec\": "
      "%.1f, \"speedup\": %.3f, \"restore_pages_mean\": %.1f, "
      "\"restore_pages_max\": %llu, \"fallbacks\": %zu, \"identical\": %s}",
      target, mode, r.cold.scenarios, (unsigned long long)r.warmup, r.windows,
      r.cold.seconds, r.snap.seconds, r.cold.scenarios_per_sec(),
      r.snap.scenarios_per_sec(), r.speedup(), r.snap.restore_pages_mean,
      (unsigned long long)r.snap.restore_pages_max, r.snap.fallbacks,
      r.identical() ? "true" : "false");
  *json += buf;
}

int PrintThroughput() {
  size_t count = static_cast<size_t>(bench::Scaled(400, 24));
  TargetResult db = RunTarget("db-suite", apps::DbSuiteMachineSetup(),
                              apps::kDbTestEntry, count, 0.02, 11);
  TargetResult pidgin = RunTarget("pidgin", apps::PidginMachineSetup(),
                                  apps::kPidginEntry, count, 0.1, 29);

  std::vector<std::vector<std::string>> rows = {
      {"target", "fault window", "mode", "scenarios", "seconds",
       "scenarios/s", "speedup"}};
  auto add = [&rows](const char* target, const ModeResult& r) {
    char window[64];
    if (r.windows > 0) {
      std::snprintf(window, sizeof(window), "%s (warmup %llu, %zu windows)",
                    r.config, (unsigned long long)r.warmup, r.windows);
    } else {
      std::snprintf(window, sizeof(window), "%s (warmup %llu)", r.config,
                    (unsigned long long)r.warmup);
    }
    for (bool snap : {false, true}) {
      const CampaignRun& run = snap ? r.snap : r.cold;
      std::vector<std::string> row;
      char buf[64];
      row.push_back(target);
      row.push_back(window);
      row.push_back(snap ? "snapshot" : "cold");
      std::snprintf(buf, sizeof(buf), "%zu", run.scenarios);
      row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%.3f", run.seconds);
      row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%.1f", run.scenarios_per_sec());
      row.push_back(buf);
      if (snap) {
        std::snprintf(buf, sizeof(buf), "%.2fx", r.speedup());
        row.push_back(buf);
      } else {
        row.push_back("1.00x (baseline)");
      }
      rows.push_back(std::move(row));
    }
  };
  for (const TargetResult* t : {&db, &pidgin}) {
    for (const ModeResult* r : {&t->entry, &t->window, &t->deep}) {
      add(t->name, *r);
    }
  }
  bench::PrintTable(
      "Campaign throughput: snapshot restore vs cold reset per scenario",
      rows);

  // Identity and zero fallbacks are enforced for every configuration; the
  // 2x scenarios/sec bar is enforced on db-suite's mid-run fault window —
  // the configuration the snapshot subsystem exists for (a 41,740-
  // instruction setup prefix restored, not re-executed). Pidgin's mid-run
  // prefix is 424 instructions, and process construction costs only the
  // pages a process writes, so its cold path is about as cheap as a
  // restore; its speedup is reported, not barred. At smoke sizes timing is
  // unstable, so the bar only warns there.
  int rc = 0;
  for (const TargetResult* t : {&db, &pidgin}) {
    for (const ModeResult* r : {&t->entry, &t->window, &t->deep}) {
      if (!r->identical()) {
        std::printf("FAIL: %s %s snapshot report diverges from the cold "
                    "path\n",
                    t->name, r->config);
        rc = 1;
      }
      if (r->snap.fallbacks != 0) {
        std::printf("FAIL: %s %s: %zu unexpected snapshot fallbacks — the "
                    "fast path did not run\n",
                    t->name, r->config, r->snap.fallbacks);
        rc = 1;
      }
    }
    if (t == &db && t->window.speedup() < 2.0) {
      std::printf("%s: %s mid-run-window snapshot speedup %.2fx below the "
                  "2x bar\n",
                  bench::SmokeMode() ? "WARNING" : "FAIL", t->name,
                  t->window.speedup());
      if (!bench::SmokeMode()) rc = 1;
    }
  }

  if (const char* path = std::getenv("LFI_BENCH_JSON")) {
    std::string json = "{\n";
    AppendJson(&json, "db_suite", "entry", db.entry);
    json += ",\n";
    AppendJson(&json, "db_suite", "window", db.window);
    json += ",\n";
    AppendJson(&json, "db_suite", "deep", db.deep);
    json += ",\n";
    AppendJson(&json, "pidgin", "entry", pidgin.entry);
    json += ",\n";
    AppendJson(&json, "pidgin", "window", pidgin.window);
    json += ",\n";
    AppendJson(&json, "pidgin", "deep", pidgin.deep);
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

/// Micro-benchmarks: one campaign per iteration (per mode).
void BM_Campaign(benchmark::State& state, bool snapshot) {
  auto setup = apps::DbSuiteMachineSetup();
  auto scenarios = MakeScenarios(16, 0.02, 11);
  for (auto _ : state) {
    CampaignRun run = RunCampaign(setup, apps::kDbTestEntry, scenarios,
                                  snapshot, 0);
    benchmark::DoNotOptimize(run.instructions);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(run.scenarios));
  }
}

void BM_CampaignCold(benchmark::State& state) { BM_Campaign(state, false); }
void BM_CampaignSnapshot(benchmark::State& state) { BM_Campaign(state, true); }
BENCHMARK(BM_CampaignCold);
BENCHMARK(BM_CampaignSnapshot);

}  // namespace
}  // namespace lfi

// Not LFI_BENCH_MAIN: the table pass returns an exit code (identity, zero
// fallbacks, and db-suite's 2x snapshot bar).
int main(int argc, char** argv) {
  int rc = lfi::PrintThroughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
