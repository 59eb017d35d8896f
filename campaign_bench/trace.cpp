#include "trace.hpp"

#include <cstdio>

#include "campaign/triage.hpp"

namespace lfi::bench {

namespace {

/// Same rule as the runner: a plan that interposes the entry symbol runs
/// cold, because a restored process resolved its entry before any stub.
bool PlanNamesEntry(const core::Plan& plan, const std::string& entry) {
  for (const core::FunctionTrigger& t : plan.triggers) {
    if (t.function == entry) return true;
  }
  return false;
}

int64_t Nanos(Clock::time_point t, Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

}  // namespace

const char* SpanName(Span span) {
  static const char* const kNames[] = {
      "core.profile",     "apps.target",     "core.generate",
      "campaign.warm",    "serve.handshake", "bench.scenario",
      "vm.restore",       "vm.reset",        "core.install",
      "vm.run",           "campaign.collect", "campaign.explore",
      "serve.dispatch",   "campaign.minimize", "serve.codec",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Span::kCount));
  return kNames[static_cast<size_t>(span)];
}

Tracer::Scope::Scope(Tracer& tracer, Span span)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  int32_t parent =
      tracer.open_.empty() ? -1 : static_cast<int32_t>(tracer.open_.back());
  tracer.open_.push_back(index_);
  tracer.spans_.push_back({span, parent, Clock::now(), {}});
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

void Tracer::Record(Span span, Clock::time_point begin, Clock::time_point end) {
  int32_t parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  spans_.push_back({span, parent, begin, end});
}

double Tracer::Total(Span span) const {
  double total = 0;
  for (const Entry& e : spans_) {
    if (e.span == span) {
      total += std::chrono::duration<double>(e.end - e.begin).count();
    }
  }
  return total;
}

size_t Tracer::Count(Span span) const {
  size_t n = 0;
  for (const Entry& e : spans_) n += e.span == span ? 1 : 0;
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Entry& e : spans_) {
    std::fprintf(f, "%s\t%d\t%lld\t%lld\n", SpanName(e.span), e.parent,
                 static_cast<long long>(Nanos(e.begin, origin_)),
                 static_cast<long long>(Nanos(e.end, origin_)));
  }
  return std::fclose(f) == 0;
}

StepwiseRunner::StepwiseRunner(
    const campaign::MachineSetup& setup,
    std::shared_ptr<const std::vector<core::FaultProfile>> profiles,
    campaign::CampaignOptions options, Tracer* tracer)
    : profiles_(std::move(profiles)),
      options_(std::move(options)),
      tracer_(tracer) {
  // CampaignRunner::Context, step for step.
  Tracer::Scope warm(*tracer_, Span::Warm);
  if (options_.exec_mode) machine_.SetExecMode(*options_.exec_mode);
  if (setup) setup(machine_);
  machine_.Checkpoint();
  if (options_.track_coverage) {
    tracker_ = machine_.EnableCoverage();
    for (const auto& mod : machine_.loader().modules()) {
      module_names_.push_back(mod->object.name);
    }
  }
  controller_ =
      std::make_unique<core::Controller>(machine_, options_.controller);
  campaign::PrepareMachineSnapshot(machine_, options_);
}

campaign::ScenarioResult StepwiseRunner::Run(const campaign::Scenario& scenario) {
  using campaign::ScenarioStatus;
  campaign::ScenarioResult result;
  result.name = scenario.name;
  Tracer::Scope whole(*tracer_, Span::Scenario);

  const std::string& entry =
      scenario.entry.empty() ? options_.entry : scenario.entry;
  const uint64_t heap_cap = scenario.heap_cap_bytes != 0
                                ? scenario.heap_cap_bytes
                                : options_.default_heap_cap;
  const uint64_t warmup =
      scenario.warmup_instructions.value_or(options_.warmup_instructions);
  bool use_snapshot = options_.snapshot && machine_.has_snapshot() &&
                      entry == options_.entry &&
                      heap_cap == options_.default_heap_cap &&
                      warmup >= options_.warmup_instructions &&
                      !PlanNamesEntry(scenario.plan, entry);

  bool setup_failed = false;
  auto install = [&] {
    Tracer::Scope span(*tracer_, Span::Install);
    if (auto st = controller_->Install(scenario.plan, profiles_); !st.ok()) {
      result.status = ScenarioStatus::SetupError;
      result.fault_message = st.error();
      setup_failed = true;
    }
  };
  auto create = [&]() -> int {
    Tracer::Scope span(*tracer_, Span::Reset);
    auto pid = machine_.CreateProcess(entry, heap_cap);
    if (pid.ok()) return pid.value();
    result.status = ScenarioStatus::SetupError;
    result.fault_message = pid.error();
    setup_failed = true;
    return 0;
  };
  auto run_to = [&](uint64_t target) {
    Tracer::Scope span(*tracer_, Span::Run);
    uint64_t before = machine_.total_instructions();
    vm::RunOutcome outcome = machine_.Run(target);
    counts_.run_instructions += machine_.total_instructions() - before;
    return outcome;
  };

  int primary_pid = 0;
  if (use_snapshot) {
    {
      Tracer::Scope span(*tracer_, Span::Restore);
      use_snapshot =
          machine_.RestoreSnapshot() && !machine_.processes().empty();
      if (use_snapshot) controller_->Reset();
    }
    if (use_snapshot && warmup > options_.warmup_instructions) run_to(warmup);
  }
  if (use_snapshot) {
    install();
    if (!setup_failed) primary_pid = machine_.processes().front()->pid();
  } else {
    {
      Tracer::Scope span(*tracer_, Span::Reset);
      machine_.Reset();
      controller_->Reset();
    }
    if (warmup > 0) {
      primary_pid = create();
      if (!setup_failed) {
        run_to(warmup);
        install();
      }
    } else {
      install();
      if (!setup_failed) primary_pid = create();
    }
  }
  result.snapshot_fallback = options_.snapshot && !use_snapshot;
  if (setup_failed) return result;

  vm::RunOutcome outcome = run_to(options_.max_instructions);
  {
    Tracer::Scope span(*tracer_, Span::Collect);
    result.instructions = machine_.total_instructions();
    result.injections = controller_->log().size();
    result.first_injection_instructions =
        controller_->first_injection_instructions();
    result.seu_landed = controller_->seu_landed();
    if (options_.collect_state_digest) {
      result.state_digest = machine_.StateDigest();
    }
    if (options_.collect_replays) result.replay = controller_->GenerateReplay();
    vm::Process* primary = machine_.process(primary_pid);
    result.exit_code = primary->exit_code();
    result.signal = primary->signal();
    result.fault_message = primary->fault_message();
    if (primary->state() == vm::ProcState::Faulted) {
      result.status = ScenarioStatus::Crashed;
      result.fault_frames = campaign::FaultFrames(*primary);
      result.crash_site_hash =
          campaign::CrashSiteHash(result.signal, result.fault_frames);
      result.crash_hash = campaign::CrashHash(
          result.signal, result.fault_frames, controller_->log());
    } else if (outcome == vm::RunOutcome::Deadlock) {
      result.status = ScenarioStatus::Deadlocked;
    } else if (outcome == vm::RunOutcome::BudgetSpent) {
      result.status = ScenarioStatus::BudgetSpent;
    } else {
      result.status = ScenarioStatus::Exited;
    }
    if (tracker_ != nullptr) {
      result.covered_offsets = tracker_->covered_total();
      for (size_t m = 0;
           m < tracker_->module_count() && m < module_names_.size(); ++m) {
        size_t covered = tracker_->covered(m);
        if (covered == 0) continue;
        result.covered_by_module[module_names_[m]] = covered;
        if (options_.collect_scenario_coverage) {
          result.coverage[module_names_[m]] = tracker_->executed(m);
        }
      }
    }
  }

  // Benchmark bookkeeping, outside every layer span.
  ++counts_.scenarios;
  counts_.instructions += result.instructions;
  counts_.injections += result.injections;
  counts_.kernel_calls += machine_.kernel().kcall_count();
  if (core::TriggerEngine* engine = controller_->engine()) {
    for (const std::string& fn : engine->functions()) {
      counts_.intercepted_calls += engine->call_count(fn);
    }
  }
  return result;
}

bool SameOutcome(const campaign::ScenarioResult& a,
                 const campaign::ScenarioResult& b) {
  return a.status == b.status && a.exit_code == b.exit_code &&
         a.signal == b.signal && a.instructions == b.instructions &&
         a.injections == b.injections &&
         a.covered_offsets == b.covered_offsets &&
         a.crash_hash == b.crash_hash;
}

}  // namespace lfi::bench
