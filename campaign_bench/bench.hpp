// Shared pieces of the campaign benchmark program: command-line options, the
// metric/outcome record every workload returns, and the workload entry
// points (campaign.cpp, explore.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace lfi::bench {

enum class Mode {
  Measure,  // set up once, then time the workload for --seconds (untraced)
  Setup,    // set up once and report only the set-up time
  Trace,    // separate traced run: per-layer metrics
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  Mode mode = Mode::Measure;
  std::string trace_out;  // span log path (trace mode; empty = not written)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports. `attempted` counts scenarios; `failed`
/// counts scenarios that ended SetupError or failed a correctness check.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed check (message goes to stderr).
  void Fail(uint64_t scenarios, const std::string& why);
};

/// Open `span` on `tracer` around `fn` when tracing; plain call otherwise.
template <typename Fn>
decltype(auto) Timed(Tracer* tracer, Span span, Fn&& fn) {
  std::optional<Tracer::Scope> scope;
  if (tracer != nullptr) scope.emplace(*tracer, span);
  return fn();
}

double Median(std::vector<double> values);
/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();

/// db-window and pidgin-entry: fixed plan sets through a CampaignRunner.
bool IsCampaignWorkload(const std::string& name);
Outcome RunCampaignWorkload(const Options& options);

/// pidgin-explore: Explorer rounds through a forked two-worker fabric.
Outcome RunExploreWorkload(const Options& options);

}  // namespace lfi::bench
