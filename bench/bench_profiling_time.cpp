// §6.2 Efficiency — "profiling time ranging from 0.2 seconds for a small
// library (libdmx, 18 exported functions, 8 KB) to 20 seconds for a large
// library (libxml2, 1612 functions, 897 KB)"; time is driven by code size,
// and propagation chains stay short (<= 3 hops).
//
// Also prints a Figure-2-style CFG listing for one exported function.
#include <chrono>

#include "analysis/cfg.hpp"
#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "core/profiler.hpp"
#include "corpus/table2_corpus.hpp"
#include "kernel/kernel_image.hpp"
#include "libc/libc_builder.hpp"
#include "util/strings.hpp"

namespace {

using namespace lfi;

corpus::GeneratedLibrary SizedLibrary(size_t functions, uint64_t seed) {
  corpus::Table2Entry entry;
  entry.library = Format("lib%zu", functions);
  entry.platform = "Linux";
  entry.function_count = functions;
  entry.paper_tp = functions * 2;
  entry.paper_fn = functions / 10;
  entry.paper_fp = functions / 20;
  return corpus::GenerateTable2Library(entry, seed);
}

void PrintTables() {
  static const sso::SharedObject kernel = kernel::BuildKernelImage();

  // Per-library times are measured serially (jobs=1) so each number is
  // uncontended and comparable to the paper's; the parallel whole-ladder
  // comparison below and BM_ProfileLadderJobs cover the fan-out.
  const std::vector<size_t> sizes = {18u, 64u, 256u, 512u, 1024u, 1612u};
  std::vector<std::vector<std::string>> ladder(sizes.size());
  campaign::ParallelFor(sizes.size(), /*jobs=*/1, [&](size_t, size_t i) {
    size_t functions = sizes[i];
    corpus::GeneratedLibrary lib = SizedLibrary(functions, 5);
    analysis::Workspace ws;
    ws.SetKernel(&kernel);
    ws.AddModule(&lib.object);
    core::Profiler profiler(ws);
    auto begin = std::chrono::steady_clock::now();
    auto profile = profiler.ProfileLibrary(lib.object);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
    if (!profile.ok()) return;
    ladder[i] = {lib.object.name, Format("%zu", functions),
                 Format("%zu KB", lib.object.code.size() / 1024),
                 Format("%.2f ms", ms),
                 Format("%llu", (unsigned long long)
                            profiler.stats().states_explored),
                 Format("%d", profiler.stats().max_hops)};
  });
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Library", "Functions", "Code size", "Profiling time",
                  "G' states", "max hops"});
  for (std::vector<std::string>& row : ladder) {
    if (!row.empty()) rows.push_back(std::move(row));
  }
  bench::PrintTable(
      "§6.2: profiling time vs library size "
      "(paper: 0.2 s at 18 fns ... 20 s at 1612 fns; shape: ~linear)",
      rows);

  // Whole-ladder wall clock, serial vs all-cores: profiling is per-library
  // static analysis, embarrassingly parallel via the campaign fan-out.
  {
    auto profile_ladder = [&](int jobs) {
      auto begin = std::chrono::steady_clock::now();
      campaign::ParallelFor(sizes.size(), jobs, [&](size_t, size_t i) {
        corpus::GeneratedLibrary lib = SizedLibrary(sizes[i], 5);
        analysis::Workspace ws;
        ws.SetKernel(&kernel);
        ws.AddModule(&lib.object);
        core::Profiler profiler(ws);
        (void)profiler.ProfileLibrary(lib.object);
      });
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - begin)
          .count();
    };
    double serial_ms = profile_ladder(1);
    double parallel_ms = profile_ladder(0);
    std::printf(
        "\nwhole ladder: %.2f ms serial, %.2f ms on all cores "
        "(%.2fx; bounded by physical cores)\n",
        serial_ms, parallel_ms,
        parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
  }

  // Propagation-hop claim on the real libc.
  {
    static const sso::SharedObject libc_so = libc::BuildLibc();
    analysis::Workspace ws;
    ws.SetKernel(&kernel);
    ws.AddModule(&libc_so);
    core::Profiler profiler(ws);
    (void)profiler.ProfileLibrary(libc_so);
    std::printf(
        "\nlibc max propagation hops: %d (paper: direct chains always <= 3; "
        "dependent calls add one level each)\n",
        profiler.stats().max_hops);
  }

  // Figure 2: a CFG listing of an exported function.
  {
    static const sso::SharedObject libc_so = libc::BuildLibc();
    auto cfg = analysis::BuildCfg(libc_so, *libc_so.find_export("close"));
    if (cfg.ok()) {
      std::printf("\n--- Figure 2 analogue: CFG of libc close() ---\n%s\n",
                  cfg.value().ToString().c_str());
    }
  }
}

void BM_ProfileByLibrarySize(benchmark::State& state) {
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  corpus::GeneratedLibrary lib =
      SizedLibrary(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    analysis::Workspace ws;
    ws.SetKernel(&kernel);
    ws.AddModule(&lib.object);
    core::Profiler profiler(ws);
    benchmark::DoNotOptimize(profiler.ProfileLibrary(lib.object));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProfileByLibrarySize)
    ->Arg(18)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1612)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

/// The whole ladder profiled with N workers via the campaign fan-out.
void BM_ProfileLadderJobs(benchmark::State& state) {
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  static const std::vector<corpus::GeneratedLibrary> libs = [] {
    std::vector<corpus::GeneratedLibrary> out;
    for (size_t functions : {18u, 64u, 256u, 512u, 1024u, 1612u}) {
      out.push_back(SizedLibrary(functions, 5));
    }
    return out;
  }();
  for (auto _ : state) {
    campaign::ParallelFor(libs.size(), static_cast<int>(state.range(0)),
                          [&](size_t, size_t i) {
                            analysis::Workspace ws;
                            ws.SetKernel(&kernel);
                            ws.AddModule(&libs[i].object);
                            core::Profiler profiler(ws);
                            benchmark::DoNotOptimize(
                                profiler.ProfileLibrary(libs[i].object));
                          });
  }
}
BENCHMARK(BM_ProfileLadderJobs)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

LFI_BENCH_MAIN(PrintTables)
