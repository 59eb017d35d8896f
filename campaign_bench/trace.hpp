// Benchmark-side tracing: spans recorded around calls into the library's
// public API, and a scenario runner that executes the runner's per-scenario
// steps one public call at a time so each step can be timed.
//
// Spans live in memory (one small struct each) and are written out once,
// after the measured work. A span's self time is its duration minus the
// durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "core/controller.hpp"
#include "vm/machine.hpp"

namespace lfi::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// The timed calls. Names are the layer prefixes of the per-layer metrics.
enum class Span : uint8_t {
  Profile,     // apps::ProfileStandardLibs
  Target,      // building the target image / MachineSetup
  Generate,    // core::GenerateRandom, one span per plan set
  Warm,        // MachineSetup + Checkpoint + PrepareMachineSnapshot
  Handshake,   // serve::FabricCoordinator::AddWorkerFd
  Scenario,    // one stepwise scenario (parent of the four steps below)
  Restore,     // Machine::RestoreSnapshot + Controller::Reset
  Reset,       // Machine::Reset + Controller::Reset + Machine::CreateProcess
  Install,     // core::Controller::Install
  Run,         // vm::Machine::Run
  Collect,     // classification, coverage, replay, triage hashes
  Explore,     // campaign::Explorer::Explore
  Dispatch,    // ScenarioDispatch::Run of one explorer round
  Minimize,    // Explore tail after the last round callback
  Codec,       // serve wire Encode/Decode of one batch
  kCount,
};

const char* SpanName(Span span);

class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction. Spans nest
  /// by lexical scope; the innermost open span is the parent.
  class Scope {
   public:
    Scope(Tracer& tracer, Span span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t index_;
  };

  /// Record an already-measured interval (parented to the open span).
  void Record(Span span, Clock::time_point begin, Clock::time_point end);

  /// Sum of span durations (seconds) and span count per name. Self time
  /// (a span minus its children) is left to readers of the span log.
  double Total(Span span) const;
  size_t Count(Span span) const;

  /// Write every span as tab-separated `name parent begin_ns end_ns`.
  bool Write(const std::string& path) const;

 private:
  struct Entry {
    Span span;
    int32_t parent;  // index into spans_, -1 for a root span
    Clock::time_point begin;
    Clock::time_point end;
  };
  std::vector<Entry> spans_;
  std::vector<size_t> open_;
  Clock::time_point origin_ = Clock::now();
};

/// Totals the stepwise runner accumulates over the scenarios it ran. All counts are
/// deterministic for a given scenario set.
struct StepCounts {
  size_t scenarios = 0;
  uint64_t instructions = 0;       // ScenarioResult::instructions, summed
  uint64_t run_instructions = 0;   // executed inside Machine::Run spans
  uint64_t kernel_calls = 0;       // KernelRuntime::kcall_count at each end
  uint64_t intercepted_calls = 0;  // TriggerEngine::call_count, summed
  uint64_t injections = 0;
};

/// One worker machine built exactly as CampaignRunner::Context builds it,
/// driven one public call at a time: restore or reset, install, run,
/// collect. Results must equal what RunScenarioOn would produce for the
/// same scenario. Flat snapshot and cold execution only.
class StepwiseRunner {
 public:
  StepwiseRunner(const campaign::MachineSetup& setup,
               std::shared_ptr<const std::vector<core::FaultProfile>> profiles,
               campaign::CampaignOptions options, Tracer* tracer);

  campaign::ScenarioResult Run(const campaign::Scenario& scenario);

  const StepCounts& counts() const { return counts_; }

 private:
  std::shared_ptr<const std::vector<core::FaultProfile>> profiles_;
  campaign::CampaignOptions options_;
  Tracer* tracer_;
  vm::Machine machine_;
  std::unique_ptr<core::Controller> controller_;
  vm::CoverageTracker* tracker_ = nullptr;
  std::vector<std::string> module_names_;
  StepCounts counts_;
};

/// The per-scenario fields a stepwise run must reproduce: status, exit code,
/// signal, instructions, injections, covered offsets, crash hash.
bool SameOutcome(const campaign::ScenarioResult& a,
                 const campaign::ScenarioResult& b);

}  // namespace lfi::bench
